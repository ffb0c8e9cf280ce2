"""hecke-lab: exact twisted Hecke algebras for GL2 over the p-adic integers,
their induced-representation spectra, and a numerical operator engine that
cuts out newspaces of classical cusp forms.

Importing the package loads none of its modules: import each from its own
submodule (`hecke_lab.hecke`, `hecke_lab.operators`, ...), so a run loads
only the side it uses."""

__version__ = "0.1.0"

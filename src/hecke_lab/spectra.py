"""The closed-form spectra of the twisted algebra on the induced model.

Both sides read these scalars: `induced` checks them against the operators'
images, its projector identities and its trace system, and `newspace` takes
the roots of the characterizing operators' quadratic relations from them.
The module imports nothing from the package, so the numerical side reads
them without loading the exact side.
"""


def table_eigenvalue(kind: str, p: int, n: int, i: int, j: int) -> int:
    """Tabulated scalar of one algebra element on one component.

    kind "V": the single-stratum basis function at level j; kind "Y": the
    accumulated sum Y_j.  Component index i is absolute, max(r,1) <= i <= n.
    """
    if kind == "Y":
        return p ** (n - j) if j >= i else 0
    if kind != "V":
        raise ValueError("kind must be 'V' or 'Y'")
    if j == n:
        return 1
    if j >= i:
        return p ** (n - j - 1) * (p - 1)
    if j == i - 1:
        return -(p ** (n - j - 1))
    return 0


def u_eigenvalue(comp: str, p: int, n: int) -> int:
    """Scalar of U, the basis function of the w class, on one component of
    the trivial twist: p^n on "w+" and -p^(n-1) on "w-", the two roots of
    U U = p^(n-1)(p-1) U + p^n Y_1 (certified in
    induced._certify_projector_family), and 0 on the components "i2".."in"
    above the bottom block."""
    if comp == "w+":
        return p**n
    if comp == "w-":
        return -(p ** (n - 1))
    return 0

"""The default campaign's verdicts, pinned to a digest.

A change that alters any assertion of the default campaign (its id, status,
values, provenance or detail) must update DEFAULT_VERDICTS_SHA256 on
purpose.  Runtimes and the report's meta (which holds the fixture path) are
left out."""

import hashlib
import json

from hecke_lab.campaign import Campaign, run_verify

FIELDS = ("id", "status", "expected", "computed", "provenance", "detail")
DEFAULT_VERDICTS_SHA256 = "ba0b627a17b19035f3214ac69a779023cb5c3fa5d86f450caa6fcbd855bf7315"


def test_default_campaign_verdicts_are_pinned(fresh_caches):
    rep = run_verify(Campaign.default())
    assert rep.ok and len(rep.assertions) == 3202
    rows = [[getattr(a, f) for f in FIELDS] for a in rep.assertions]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == DEFAULT_VERDICTS_SHA256

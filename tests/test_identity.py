"""Identity gate: every builder's output on a fixed corpus, pinned by digest.

Each digest is the SHA-256 (first 12 hex digits) of one builder's
``write_lp`` text and ``to_json``, or its error type and message, over the
whole corpus in order.  A change to any emitted model or cover has to edit a
digest here, so output changes are never silent.
"""

import hashlib
import random

import pytest

from cdcmip import (
    InputError,
    NoJunctionTreeError,
    build_extended_disjoint,
    build_extended_jtree,
    build_ib_from_cover,
    build_jeroslow_lowe,
    build_log_embedding,
    build_naive,
    build_pwl,
    build_sosk,
    build_sosk_kis,
    heuristic_cover,
    sosk_family,
    write_lp,
)
from helpers import random_family, random_junction_family


def _families():
    rng = random.Random(2024)
    fams = [random_junction_family(rng, 10, 20) for _ in range(60)]
    fams += [random_family(rng, 7, 10) for _ in range(120)]
    return fams + [sosk_family(20, 3), sosk_family(40, 4), sosk_family(64, 2)]


WINDOWS = [(n, k) for n in range(3, 40) for k in range(2, min(n, 8))]
BREAKPOINTS = [
    [(0, 0), (1, 2), (2, 1)],
    [(0, 0), ("1/2", "3/4")],
    [(0, 0), ("1/3", 1), (1, "2/3")],
    [(-3, 1), ("-1/2", "5/7"), (0, 0), (2, "9/4"), (5, -1), (6, 0), ("13/2", "1/3")],
]

FAMILY_BUILDERS = {
    "naive": build_naive,
    "jl": build_jeroslow_lowe,
    "log": build_log_embedding,
    "ib": lambda fam: build_ib_from_cover(fam, heuristic_cover(fam)),
    "ext-jtree": build_extended_jtree,
    "ext-disjoint": build_extended_disjoint,
}

DIGESTS = {
    "naive": "eb1236a41acf",
    "jl": "8f693ef57bf5",
    "log": "392552dd30cd",
    "ib": "90007232b29e",
    "ext-jtree": "98e58a925831",
    "ext-disjoint": "beacfbac5d30",
    "sosk": "fafd7a875073",
    "kis": "1232cfa53914",
    "pwl": "742ff72d4987",
    "heuristic_cover": "340b24eb1f94",
}


def _digest(make, inputs, render) -> str:
    h = hashlib.sha256()
    for item in inputs:
        try:
            text = render(make(item))
        except (InputError, NoJunctionTreeError) as exc:  # the error is output too
            text = f"{type(exc).__name__}: {exc}"
        h.update(text.encode() + b"\0")
    return h.hexdigest()[:12]


def _model(f) -> str:
    return write_lp(f) + f.to_json()


@pytest.fixture(scope="module")
def cases():
    fams = _families()
    out = {name: (build, fams, _model) for name, build in FAMILY_BUILDERS.items()}
    out["sosk"] = (lambda nk: build_sosk(*nk), WINDOWS, _model)
    out["kis"] = (lambda nk: build_sosk_kis(*nk), WINDOWS, _model)
    out["pwl"] = (build_pwl, BREAKPOINTS, _model)
    out["heuristic_cover"] = (heuristic_cover, fams, lambda cover: cover.to_json())
    return out


@pytest.mark.parametrize("name", list(DIGESTS))
def test_output_digest(cases, name):
    assert _digest(*cases[name]) == DIGESTS[name]

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
    IndexSetFamily,
    InputError,
    NoJunctionTreeError,
    brute_admits_junction_tree,
    build_equivalent_family,
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
    maximum_spanning_tree_of,
    sosk_family,
    write_lp,
)
from helpers import random_family, random_junction_family


def _families():
    rng = random.Random(2024)
    fams = [random_junction_family(rng, 10, 20) for _ in range(60)]
    fams += [random_family(rng, 7, 10) for _ in range(120)]
    return fams + [sosk_family(20, 3), sosk_family(40, 4), sosk_family(64, 2)]


def _extra_families():
    """A 40-set star, and a family whose maximum spanning tree needs zero-weight pairs.

    The second family's intersection graph has four components, {0, 2},
    {1, 3, 5}, {4} and {6, 7}, so its tree joins them through pairs that
    share no index.
    """
    star = IndexSetFamily([[0, i] for i in range(1, 41)])
    split = IndexSetFamily(
        [[5, 6], [1, 2], [6, 7], [2, 3], [9], [3, 4, 8], [10, 11], [11, 12]]
    )
    return [star, split]


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

# The star and the zero-weight completion, and the maximum spanning tree of
# every family in both corpora.
EXTRA_DIGESTS = {
    "naive": "2f069d519ea5",
    "jl": "a2de352b49ac",
    "log": "499978445138",
    "ib": "b109cab67cc4",
    "ext-jtree": "ba157f990fb9",
    "ext-disjoint": "67725ba30060",
    "heuristic_cover": "c47aaaf001a0",
    "tree": "4b7ec2100cee",
}


# The rewrite in both modes over both corpora, and the exhaustive oracle's
# junction tree (or null) on every corpus family of at most 7 sets.
TREE_DIGESTS = {
    "transform": "5a3d180580b2",
    "transform-disjoint": "8d2bd14e8ef7",
    "brute_tree": "b2b5ba04f8a4",
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


@pytest.fixture(scope="module")
def extra_cases():
    fams = _extra_families()
    out = {name: (build, fams, _model) for name, build in FAMILY_BUILDERS.items()}
    out["heuristic_cover"] = (heuristic_cover, fams, lambda cover: cover.to_json())
    out["tree"] = (maximum_spanning_tree_of, _families() + fams, lambda tree: tree.to_json())
    return out


@pytest.mark.parametrize("name", list(DIGESTS))
def test_output_digest(cases, name):
    assert _digest(*cases[name]) == DIGESTS[name]


@pytest.mark.parametrize("name", list(EXTRA_DIGESTS))
def test_extra_output_digest(extra_cases, name):
    assert _digest(*extra_cases[name]) == EXTRA_DIGESTS[name]


def _rewrite(disjoint: bool):
    return lambda fam: build_equivalent_family(fam, disjoint=disjoint)


@pytest.fixture(scope="module")
def tree_cases():
    fams = _families() + _extra_families()
    return {
        "transform": (_rewrite(False), fams, lambda res: res.to_json()),
        "transform-disjoint": (_rewrite(True), fams, lambda res: res.to_json()),
        "brute_tree": (
            brute_admits_junction_tree,
            [fam for fam in fams if len(fam) <= 7],
            lambda tree: "null" if tree is None else tree.to_json(),
        ),
    }


@pytest.mark.parametrize("name", list(TREE_DIGESTS))
def test_tree_digest(tree_cases, name):
    assert _digest(*tree_cases[name]) == TREE_DIGESTS[name]

"""Rewriting an arbitrary family into one that admits a junction tree.

Every member set first receives its own fresh copies of its indices, which
trivially yields pairwise disjoint sets and a path junction tree.  In the
non-disjoint mode, copies of the same original index are re-identified along
a maximum spanning tree of the original intersection graph, spending one
fresh index less per unit of tree weight.  A fiber-summing map carries mass
on the copies back to the original indices.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple

from .cdc import IndexSetFamily, ground_set
from .errors import InputError, InvariantError, RedundantFamilyWarning
from .jtree import CandidateTree, _preorder, is_junction_tree, maximum_spanning_tree_of


@dataclass(frozen=True)
class IndexMapping:
    """Map from copy indices back to the original indices they stand for."""

    forward: Mapping[int, int]

    def fibers(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for u in sorted(self.forward):
            out.setdefault(self.forward[u], []).append(u)
        return out


@dataclass(frozen=True)
class TransformResult:
    family_prime: IndexSetFamily
    mapping: IndexMapping
    tree: CandidateTree
    extra_continuous: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "sets": [sorted(s) for s in self.family_prime.sets],
                "alpha": {str(u): v for u, v in sorted(self.mapping.forward.items())},
                "tree": json.loads(self.tree.to_json()),
                "extra_continuous": self.extra_continuous,
            }
        )


def build_equivalent_family(family: IndexSetFamily, disjoint: bool) -> TransformResult:
    """Equivalent family admitting a junction tree, with the copy-to-original map.

    ``disjoint=True`` keeps one private copy of every index per set and a
    path tree.  ``disjoint=False`` additionally re-identifies copies along a
    maximum spanning tree of the original intersection graph, walked from
    the first set, each parent before its children.
    """
    d = len(family)
    original_ground = ground_set(family)
    new_sets: list[list[int]] = []
    alpha: dict[int, int] = {}
    c = 0
    for s in family.sets:
        ordered = sorted(s)
        ids = list(range(c + 1, c + len(ordered) + 1))
        c += len(ordered)
        for new, orig in zip(ids, ordered):
            alpha[new] = orig
        new_sets.append(ids)

    if disjoint:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RedundantFamilyWarning)
            fam2 = IndexSetFamily(new_sets)
        tree = CandidateTree(fam2, [(i, i + 1) for i in range(d - 1)])
        return TransformResult(
            fam2, IndexMapping(alpha), tree, c - len(original_ground)
        )

    mst_edges = maximum_spanning_tree_of(family).edges
    up = _preorder(mst_edges, 0)
    del up[0]
    for child, parent in up.items():
        by_orig = {alpha[x]: x for x in new_sets[parent]}
        new_sets[child] = [by_orig.get(alpha[y], y) for y in sorted(new_sets[child])]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RedundantFamilyWarning)
        fam2 = IndexSetFamily(new_sets)
    new_ground = ground_set(fam2)
    alpha = {u: v for u, v in alpha.items() if u in new_ground}
    tree = CandidateTree(fam2, mst_edges)
    if not is_junction_tree(fam2, tree):
        raise InvariantError("re-identified tree failed the junction test")
    return TransformResult(
        fam2, IndexMapping(alpha), tree, len(new_ground) - len(original_ground)
    )


def project(
    lambda_prime: Mapping[int, Fraction], mapping: IndexMapping
) -> dict[int, Fraction]:
    """Push mass on copy indices down to original indices by summing fibers."""
    out: dict[int, Fraction] = {}
    for u, value in lambda_prime.items():
        if u not in mapping.forward:
            raise InputError(f"index {u} is outside the mapping's domain")
        v = mapping.forward[u]
        out[v] = out.get(v, Fraction(0)) + value
    return out


class VariableAccounting(NamedTuple):
    extended_jtree_cont: int
    extended_disjoint_cont: int
    jtree_binaries_ub: int
    disjoint_binaries: int


def variable_accounting(family: IndexSetFamily) -> VariableAccounting:
    """Auxiliary-variable counts of the two extended formulations.

    The junction-tree route spends total copy count minus tree weight minus
    ground size extra continuous variables; the disjoint route skips the
    tree-weight rebate but needs only logarithmically many binaries.
    """
    total = sum(len(s) for s in family.sets)
    j = len(ground_set(family))
    w = maximum_spanning_tree_of(family).weight
    d = len(family)
    return VariableAccounting(
        extended_jtree_cont=total - w - j,
        extended_disjoint_cont=total - j,
        jtree_binaries_ub=d - 1,
        disjoint_binaries=(d - 1).bit_length(),
    )

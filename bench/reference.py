"""Independent reference evaluator for the benchmark's own formula terms.

Classical two-valued semantics straight over a spec's Python sets and tuples.
It imports nothing from the program, so a fault in the parser, the plan
compiler, the tensors or the program's own oracle cannot hide here.

Terms are nested tuples:

    ("pred", p, a)           ("rel", r, (a1, ..., ak))
    ("not", f)               ("and" | "or" | "implies", f, g)
    ("all", s, t)            ("exists", s)

and set expressions, used only under the two quantifiers:

    ("pset", p)              ("prel", r, (a1, ..., a(k-1)))   # open last slot
    ("inter", s, t)          ("union", s, t)
"""

from __future__ import annotations


def holds(f: tuple, spec) -> bool:
    """Classical truth value of the term ``f`` in ``spec``."""
    op = f[0]
    if op == "pred":
        return f[2] in spec.predicates[f[1]]
    if op == "rel":
        return f[2] in spec.relations[f[1]][1]
    if op == "not":
        return not holds(f[1], spec)
    if op == "and":
        return holds(f[1], spec) and holds(f[2], spec)
    if op == "or":
        return holds(f[1], spec) or holds(f[2], spec)
    if op == "implies":
        return not holds(f[1], spec) or holds(f[2], spec)
    if op == "all":
        return denote(f[1], spec) <= denote(f[2], spec)
    if op == "exists":
        return bool(denote(f[1], spec))
    raise ValueError(f"not a formula term: {f!r}")


def denote(s: tuple, spec) -> set:
    """The set of atom names a set-expression term denotes in ``spec``."""
    op = s[0]
    if op == "pset":
        return set(spec.predicates[s[1]])
    if op == "prel":
        bound = s[2]
        return {t[-1] for t in spec.relations[s[1]][1] if t[:-1] == bound}
    if op == "inter":
        return denote(s[1], spec) & denote(s[2], spec)
    if op == "union":
        return denote(s[1], spec) | denote(s[2], spec)
    raise ValueError(f"not a set term: {s!r}")

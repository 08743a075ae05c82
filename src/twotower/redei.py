"""Redei matrices over F2, 2- and 4-rank formulas, and open-case classification.

The classification catalog (catalog.txt) lists the open 5x5 matrix cases
for imaginary quadratic fields with five ramified primes, in the
numbering of Sueyoshi's and Benjamin's casework; a field is classified by
backtracking over assignments of its prime discriminants to catalog slots,
checking sign codes and fixed entries as each slot is filled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

from .arith import PrimeDiscriminant, QuadFieldSpec, kronecker


@dataclass(frozen=True)
class RedeiMatrix:
    """Additive Redei matrix: (-1)^a_ij = (p_i*/p_j), diagonal fixed by zero row sums."""

    entries: tuple[tuple[int, ...], ...]
    labels: tuple[PrimeDiscriminant, ...]

    @property
    def t(self) -> int:
        return len(self.labels)

    def __str__(self) -> str:
        return "\n".join(" ".join(str(e) for e in row) for row in self.entries)


def _entry(value: int, prime: int) -> int:
    """The F2 Redei entry of the symbol (value/prime): 0 when it is 1, else 1."""
    return 0 if kronecker(value, prime) == 1 else 1


def redei_matrix(spec: QuadFieldSpec) -> RedeiMatrix:
    """Redei matrix of the field, rows/columns in the spec's disc order.

    Off-diagonal a_ij encodes (p_i*/p_j); the diagonal encodes the
    cofactor symbol ((Delta/p_i*)/p_i), which by multiplicativity equals
    the column sum of the off-diagonal entries, so column sums vanish.
    """
    discs = spec.discs
    delta = spec.discriminant
    rows = []
    for i, di in enumerate(discs):
        top = delta // di.value
        row = [_entry(top if i == j else di.value, dj.prime) for j, dj in enumerate(discs)]
        rows.append(tuple(row))
    return RedeiMatrix(tuple(rows), discs)


def f2_rank(m: RedeiMatrix) -> int:
    """Rank over F2 by Gaussian elimination on row bitmasks."""
    rows = [sum(bit << k for k, bit in enumerate(row)) for row in m.entries]
    rank = 0
    for k in range(m.t):
        pivot = next((r for r in rows if r >> k & 1), None)
        if pivot is None:
            continue
        rank += 1
        rows = [r ^ pivot if r >> k & 1 else r for r in rows if r != pivot]
    return rank


def _four_rank(m: RedeiMatrix) -> int:
    return m.t - 1 - f2_rank(m)


def four_rank_narrow(spec: QuadFieldSpec) -> int:
    """d4 of the narrow class group, via the Redei-Reichardt rank formula."""
    return _four_rank(redei_matrix(spec))


def two_ranks(spec: QuadFieldSpec) -> tuple[int, int]:
    """(narrow, wide) 2-ranks from genus theory."""
    narrow = spec.t - 1
    drop = 1 if spec.discriminant > 0 and any(d.value < 0 for d in spec.discs) else 0
    return narrow, narrow - drop


@dataclass(frozen=True)
class CaseId:
    """Catalog verdict: matched tag plus the disc permutation that matched."""

    tag: str
    permutation: tuple[int, ...] = ()
    reason: str = ""

    def to_json_dict(self) -> dict:
        out = {"tag": self.tag, "permutation": list(self.permutation)}
        if self.reason:
            out["reason"] = self.reason
        return out


@dataclass(frozen=True)
class CatalogCase:
    tag: str
    status: str
    signs: tuple[str, ...]
    fixed: tuple[tuple[int | None, ...], ...]  # None on diagonal and wildcards
    note: str = ""


def _parse_catalog(text: str) -> tuple[CatalogCase, ...]:
    cases = []
    block: dict = {}

    def flush():
        if not block:
            return
        cases.append(
            CatalogCase(
                tag=block["case"],
                status=block.get("status", "open"),
                signs=tuple(block["signs"]),
                fixed=tuple(tuple(block["rows"][i]) for i in range(len(block["rows"]))),
                note=block.get("note", ""),
            )
        )
        block.clear()

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "case":
            flush()
            block["case"] = rest
            block["rows"] = []
        elif key in ("status", "note"):
            block[key] = rest
        elif key == "signs":
            block["signs"] = rest.split()
        elif key == "row":
            row = [None if tok in ("-", "*") else int(tok) for tok in rest.split()]
            block["rows"].append(row)
        else:
            raise ValueError(f"unknown catalog line: {raw!r}")
    flush()
    return tuple(cases)


def catalog_text() -> str:
    return resources.files(__package__).joinpath("catalog.txt").read_text()


_CATALOG: tuple[CatalogCase, ...] | None = None


def catalog_cases() -> tuple[CatalogCase, ...]:
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _parse_catalog(catalog_text())
    return _CATALOG


def _slot_ok(code: str, d: PrimeDiscriminant) -> bool:
    if code == "4":
        return d.value == -4
    if code == "-":
        return d.value < 0 and d.value != -4
    if code == "+":
        return d.value > 0
    raise ValueError(f"bad sign code {code}")


def _agrees(fixed, a, perm: list[int], k: int) -> bool:
    """Whether the disc in slot k fits the fixed entries against slots 0..k."""
    i = perm[k]
    for j in range(k + 1):
        want, back = fixed[k][j], fixed[j][k]
        if want is not None and a[i][perm[j]] != want:
            return False
        if back is not None and a[perm[j]][i] != back:
            return False
    return True


def _fill(fixed, slots, a, perm: list[int]) -> bool:
    """Extend perm slot by slot to a full fit, trying indices ascending."""
    k = len(perm)
    if k == len(slots):
        return True
    for i in slots[k]:
        if i in perm:
            continue
        perm.append(i)
        if _agrees(fixed, a, perm, k) and _fill(fixed, slots, a, perm):
            return True
        perm.pop()
    return False


def _sign_slots(discs) -> dict[str, list[int]]:
    """For each sign code, the ascending indices of the discs it admits."""
    return {code: [i for i, d in enumerate(discs) if _slot_ok(code, d)] for code in "4-+"}


def _match(case: CatalogCase, by_code: dict[str, list[int]], a) -> tuple[int, ...] | None:
    """Least permutation (lexicographically) that fits the case, or None.

    by_code is the field's _sign_slots, worked out once per field.  Every
    disc has exactly one sign code, so a block whose counts of each code
    differ from the field's admits no bijection and is rejected at once.
    perm[k] is the disc index placed in catalog slot k.  Slots are filled in
    order, each trying the unused sign-admissible indices ascending, and the
    fixed entries between the new slot and every filled one are checked at
    once; so the first full assignment is the first match a scan of all
    permutations in lexicographic order would find.  The helpers are
    module-level functions rather than closures: a closure that calls itself
    is a reference cycle, and one per catalog block per field kept the
    cyclic garbage collector running several times per classification.
    """
    if any(len(idx) != case.signs.count(code) for code, idx in by_code.items()):
        return None
    slots = [by_code[code] for code in case.signs]
    perm: list[int] = []
    return tuple(perm) if _fill(case.fixed, slots, a, perm) else None


def _classify(spec: QuadFieldSpec, m: RedeiMatrix) -> CaseId:
    """classify_open_case on a field whose Redei matrix m is already built."""
    by_code = _sign_slots(spec.discs)
    for case in catalog_cases():
        perm = _match(case, by_code, m.entries)
        if perm is None:
            continue
        if case.status == "resolved":
            return CaseId("NotOpen", perm, f"resolved elsewhere: {case.tag} ({case.note})")
        return CaseId(case.tag, perm)
    if _four_rank(m) >= 3:
        reason = "4-rank >= 3: infinite 2-tower already known (Hajir), not an open case"
    else:
        reason = "no open-case match: settled in the literature or outside the catalog"
    return CaseId("NotOpen", (), reason)


def classify_open_case(spec: QuadFieldSpec) -> CaseId:
    """Match a five-disc imaginary field against the open-matrix catalog.

    Catalog blocks are tried in file order; the matched permutation maps
    catalog slot k to spec disc permutation[k] and is the lexicographically
    least one that fits the block.  Fields matching no block (including
    everything already settled in the literature) come back as NotOpen.
    """
    if spec.t != 5 or spec.discriminant > 0:
        raise ValueError("classification is defined for imaginary fields with t = 5")
    return _classify(spec, redei_matrix(spec))

"""Redei matrices over F2, 2- and 4-rank formulas, and open-case classification.

This module builds Redei matrices and owns their one form: the tuple of
column bitmasks cols with no diagonal, bit i of cols[j] the entry
_entry(d_i, p_j) for i != j (_redei_columns).  tower reads witness bits
off it as cols[j] & sub, and search assembles columns bit by bit in the
same orientation; every rank and classification is read here.  The field
on the discs in a bitmask sub of them has the columns cols[j] & sub for j
in sub, and each diagonal entry is its column's parity, so _four_rank
reads the 4-rank of any such subfield off one field's columns.
redei_matrix alone turns the columns into rows.  The classification
catalog (catalog.txt) lists the open 5x5 matrix cases for imaginary
quadratic fields with five ramified primes, in the numbering of Sueyoshi's
and Benjamin's casework.  That casework reads only the sign codes of a
field's discs, in order, and its Redei matrix, so classification is a
cached function of (sign codes, columns), keyed on the column tuple
itself.  It backtracks over assignments of the discs to catalog slots,
checking sign codes and fixed entries as each slot is filled, once per
pair it meets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .arith import PrimeDiscriminant, QuadFieldSpec, kronecker


# Sized from the distinct keys met in 20 s benchmark runs.  complete_tuple
# at bound 300 on every open case meets 174 cases and 2,609 entries in all,
# which these hold with room; analyze on seeded fields meets about 0.55 and
# 1.8 new ones per field, a set no fixed size holds.
_CASE_CACHE_SIZE = 1024
_ENTRY_CACHE_SIZE = 4096


@lru_cache(maxsize=_ENTRY_CACHE_SIZE)
def _entry(value: int, prime: int) -> int:
    """The F2 Redei entry of the symbol (value/prime): 0 when it is 1, else 1."""
    return 0 if kronecker(value, prime) == 1 else 1


def _redei_columns(spec: QuadFieldSpec) -> tuple[int, ...]:
    """The field's Redei matrix as column bitmasks, in the spec's disc order:
    bit i of cols[j] is _entry(d_i, p_j) for i != j, and bit j is 0."""
    discs = spec.discs
    return tuple(
        sum(_entry(di.value, dj.prime) << i for i, di in enumerate(discs) if i != j)
        for j, dj in enumerate(discs)
    )


def redei_matrix(spec: QuadFieldSpec) -> tuple[tuple[int, ...], ...]:
    """Additive Redei matrix of the field as a tuple of rows over F2, rows
    and columns in the spec's disc order.

    (-1)^a_ij = (p_i*/p_j) off the diagonal; the diagonal a_jj encodes the
    cofactor symbol ((Delta/p_j*)/p_j), which by multiplicativity equals
    the sum of column j's off-diagonal entries, so it is that column's
    parity and every column sums to zero.
    """
    cols = _redei_columns(spec)
    return tuple(
        tuple(col.bit_count() & 1 if i == j else col >> i & 1 for j, col in enumerate(cols))
        for i in range(len(cols))
    )


def f2_rank(entries: tuple[tuple[int, ...], ...]) -> int:
    """Rank over F2 of a square matrix's rows, such as redei_matrix's."""
    return _mask_rank([sum(bit << k for k, bit in enumerate(row)) for row in entries])


def _mask_rank(vectors) -> int:
    """Rank over F2 of int bitmasks: each is reduced by the basis so far."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def _four_rank(cols: tuple[int, ...], sub: int | None = None) -> int:
    """Narrow Redei 4-rank |sub| - 1 - rank(R_F) of the field F on the discs
    in sub (default: every disc) from columns as _redei_columns gives them:
    R_F's column j is cols[j] & sub, its diagonal bit set to the parity."""
    if sub is None:
        sub = (1 << len(cols)) - 1
    on = [j for j in range(sub.bit_length()) if sub >> j & 1]
    vecs = [(a := cols[j] & sub) | (a.bit_count() & 1) << j for j in on]
    return len(on) - 1 - _mask_rank(vecs)


def four_rank_narrow(spec: QuadFieldSpec) -> int:
    """d4 of the narrow class group, via the Redei-Reichardt rank formula."""
    return _four_rank(_redei_columns(spec))


def _wide_two_rank(t: int, negatives: int) -> int:
    """The wide 2-rank, by genus theory, of a field with t prime discs of
    which `negatives` are negative: t - 1, less one when the field is real
    (an even count of negatives) and has a negative disc."""
    return t - 1 - (negatives > 0 and negatives % 2 == 0)


def two_ranks(spec: QuadFieldSpec) -> tuple[int, int]:
    """(narrow, wide) 2-ranks from genus theory."""
    return spec.t - 1, _wide_two_rank(spec.t, sum(d.value < 0 for d in spec.discs))


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
    """The catalog's blocks; ValueError on a stray line or a malformed block."""
    cases = []
    block: dict = {}

    def flush():
        if not block:
            return
        tag, signs, rows = block["case"], block.get("signs", ()), block["rows"]
        if not (
            len(signs) == 5
            and set(signs) <= set("4-+")
            and len(rows) == 5
            and all(len(row) == 5 for row in rows)
            and all(
                tok == "-" if i == j else tok in ("*", "0", "1")
                for i, row in enumerate(rows)
                for j, tok in enumerate(row)
            )
            and block.get("status") in ("open", "resolved")
            and all(c.tag != tag for c in cases)
        ):
            raise ValueError(
                f"catalog block {tag!r} needs five sign codes from 4 - +, five rows of"
                " five 0 1 * entries with - on the diagonal only, status open or"
                " resolved, and a tag of its own"
            )
        fixed = tuple(tuple(None if tok in "-*" else int(tok) for tok in row) for row in rows)
        cases.append(CatalogCase(tag, block["status"], tuple(signs), fixed, block.get("note", "")))
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
        elif not block:
            raise ValueError(f"catalog line before any case: {raw!r}")
        elif key in ("status", "note"):
            block[key] = rest
        elif key == "signs":
            block["signs"] = rest.split()
        elif key == "row":
            block["rows"].append(rest.split())
        else:
            raise ValueError(f"unknown catalog line: {raw!r}")
    flush()
    return tuple(cases)


def catalog_text() -> str:
    return resources.files(__package__).joinpath("catalog.txt").read_text()


@lru_cache(maxsize=1)
def catalog_cases() -> tuple[CatalogCase, ...]:
    return _parse_catalog(catalog_text())


def _code(d: PrimeDiscriminant) -> str:
    """d's catalog sign code: '4' for -4, '-' for other negatives, '+' for positives."""
    return "4" if d.value == -4 else "-" if d.value < 0 else "+"


def _agrees(fixed, cols, perm: list[int], k: int) -> bool:
    """Whether the disc in slot k fits the fixed entries against slots 0..k."""
    i = perm[k]
    for j in range(k + 1):
        want, back = fixed[k][j], fixed[j][k]
        if want is not None and cols[perm[j]] >> i & 1 != want:
            return False
        if back is not None and cols[i] >> perm[j] & 1 != back:
            return False
    return True


def _fill(fixed, slots, cols, perm: list[int]) -> bool:
    """Extend perm slot by slot to a full fit, trying indices ascending."""
    k = len(perm)
    if k == len(slots):
        return True
    for i in slots[k]:
        if i in perm:
            continue
        perm.append(i)
        if _agrees(fixed, cols, perm, k) and _fill(fixed, slots, cols, perm):
            return True
        perm.pop()
    return False


def _match(case: CatalogCase, by_code: dict[str, list[int]], cols) -> tuple[int, ...] | None:
    """Least permutation (lexicographically) that fits the case, or None.

    by_code maps each sign code to the ascending indices of the discs that
    have it, worked out once per field.  Every disc has exactly one sign
    code, so a block whose counts of each code differ from the field's
    admits no bijection and is rejected at once.
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
    return tuple(perm) if _fill(case.fixed, slots, cols, perm) else None


@lru_cache(maxsize=_CASE_CACHE_SIZE)
def _case_of(codes: tuple[str, ...], cols: tuple[int, ...]) -> CaseId:
    """The verdict for discs with these sign codes, in order, and Redei columns."""
    by_code = {code: [i for i, c in enumerate(codes) if c == code] for code in "4-+"}
    for case in catalog_cases():
        perm = _match(case, by_code, cols)
        if perm is None:
            continue
        if case.status == "resolved":
            return CaseId("NotOpen", perm, f"resolved elsewhere: {case.tag} ({case.note})")
        return CaseId(case.tag, perm)
    if _four_rank(cols) >= 3:
        reason = "4-rank >= 3: infinite 2-tower already known (Hajir), not an open case"
    else:
        reason = "no open-case match: settled in the literature or outside the catalog"
    return CaseId("NotOpen", (), reason)


def _classify(spec: QuadFieldSpec, cols: tuple[int, ...]) -> CaseId:
    """classify_open_case on a field whose Redei columns are already built."""
    return _case_of(tuple(map(_code, spec.discs)), cols)


def classify_open_case(spec: QuadFieldSpec) -> CaseId:
    """Match a five-disc imaginary field against the open-matrix catalog.

    Catalog blocks are tried in file order; the matched permutation maps
    catalog slot k to spec disc permutation[k] and is the lexicographically
    least one that fits the block.  Fields matching no block (including
    everything already settled in the literature) come back as NotOpen.
    """
    if spec.t != 5 or spec.discriminant > 0:
        raise ValueError("classification is defined for imaginary fields with t = 5")
    return _classify(spec, _redei_columns(spec))

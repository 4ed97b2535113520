"""Tree degree sequences and their textual format.

A degree sequence is kept sorted nonincreasing: d_1 >= d_2 >= ... >= d_n.
It is a tree sequence when n = 1 and the sequence is exactly (0), or when
n >= 2, every entry is >= 1 and the entries sum to 2(n - 1). k denotes the
number of internal entries (those >= 2); entries k+1..n are all 1.
"""

from dataclasses import dataclass
from operator import index
from typing import Iterable

from .errors import NotATreeSequence, ParseError


@dataclass(frozen=True)
class DegreeSequence:
    degrees: tuple[int, ...]

    def __post_init__(self):
        try:
            ordered = tuple(sorted(map(index, self.degrees), reverse=True))
        except TypeError:
            raise NotATreeSequence(f"degrees must be integers: {self.degrees}") from None
        object.__setattr__(self, "degrees", ordered)
        # k is kept outside the fields: equality, hashing and repr ignore it.
        object.__setattr__(self, "k", sum(1 for d in ordered if d >= 2))
        n = len(ordered)
        if n == 0:
            raise NotATreeSequence("empty degree sequence")
        if n == 1:
            if ordered != (0,):
                raise NotATreeSequence(
                    f"a single vertex has degree sequence (0), got {ordered}"
                )
            return
        if any(d < 1 for d in ordered):
            raise NotATreeSequence(f"degrees must be >= 1 for n >= 2: {ordered}")
        total = sum(ordered)
        if total != 2 * (n - 1):
            raise NotATreeSequence(
                f"degree sum {total} != 2(n-1) = {2 * (n - 1)} for n={n}"
            )

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def internal(self) -> tuple[int, ...]:
        return self.degrees[: self.k]

    def __str__(self) -> str:
        return ",".join(str(d) for d in self.degrees)


def _built(degrees: tuple[int, ...], k: int) -> DegreeSequence:
    """The DegreeSequence of degrees, which its generator built sorted
    nonincreasing and valid with k internal entries, taken as built: no
    re-sort, no re-validation. User input goes through DegreeSequence."""
    ds = object.__new__(DegreeSequence)
    ds.__dict__.update(degrees=degrees, k=k)
    return ds


def degree_sequence(values: Iterable[int]) -> DegreeSequence:
    return DegreeSequence(tuple(values))


def parse_degree_sequence(text: str) -> DegreeSequence:
    """Parse "d,d,..." where each entry may carry a *m repetition suffix.

    Example: "8,3,3,3,2,1*11" expands the final entry to eleven ones.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty degree-sequence string")
    values: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ParseError(f"empty entry in {text!r}")
        if "*" in token:
            base, _, reps = token.partition("*")
            try:
                d, m = int(base.strip()), int(reps.strip())
            except ValueError:
                raise ParseError(f"malformed repeated entry {token!r}") from None
            if m < 1:
                raise ParseError(f"repetition count must be >= 1 in {token!r}")
            values.extend([d] * m)
        else:
            try:
                values.append(int(token))
            except ValueError:
                raise ParseError(f"malformed entry {token!r}") from None
    if any(d < 0 for d in values):
        raise ParseError(f"negative degree in {text!r}")
    return DegreeSequence(tuple(values))

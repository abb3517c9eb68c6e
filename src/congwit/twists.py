"""Explicit twist maps between finite-level quotients, with a verifier.

Three twist kinds, one QuotientIso subclass each, realize the isomorphisms
behind the constructed pairs:

  central transport   move the canonical order-m central factor from one
                      place to another (multiplicative on central parts by
                      construction)
  place swap          exchange the components at two places over the same
                      rational prime (a relabeling of the ambient product)
  graph automorphism  apply the diagram symmetry to one component

Each twist has an explicit inverse of the same type.  verify_iso checks
that a declared twist is a well-defined bijective homomorphism between its
source and target: on every edge of the Cayley graph of a small quotient,
on seeded sample pairs otherwise.  Failures are data in the report, not
errors, so deliberately broken twists are refuted rather than crashing.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import threading
from dataclasses import MISSING, dataclass, fields

from .errors import InputError, json_int
from .matrices import mat_mul, scalar_mul
from .parabolics import graph_automorphism, graph_automorphism_inverse
from .quotients import CentralPrincipal, FiniteQuotientGroup, enumerate_quotient, tuple_mul
from .rings import PrimePlace

# Quotients at most this large are verified exhaustively: every element
# against every generator, an edge of the Cayley graph.
EXHAUSTIVE_LIMIT = 64


def child_seed(master_seed: int, index: int) -> int:
    """Deterministic per-index seed: first 8 bytes of sha256("master:index").

    Fixing the splitting rule keeps reports byte-stable no matter how the
    sample indices are batched.
    """
    digest = hashlib.sha256(f"{master_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(eq=False)
class QuotientIso:
    """A declared isomorphism between two finite-level quotients.

    One subclass per twist kind supplies the image of a member (`_image`)
    and the inverse twist (`invert`).  The JSON form is the kind plus each
    field after source and target, a field with a default only where it
    differs from it: a place by its label, an integer or a bool as it is.
    """

    source: FiniteQuotientGroup
    target: FiniteQuotientGroup

    def apply(self, g):
        """Image of a source member; non-members of the source are rejected."""
        if not self.source.member(g):
            raise InputError("apply needs a member of the source quotient")
        return self._image(g)

    def to_json(self) -> dict:
        doc = {"kind": self.kind}
        for f in fields(self)[2:]:
            value = getattr(self, f.name)
            if f.default is MISSING or value != f.default:
                doc[f.name] = value.label if f.type == "PrimePlace" else value
        return doc

    @classmethod
    def from_json(cls, doc: dict, source, target, places: dict) -> QuotientIso:
        """The twist a JSON form names, between the given quotients; places
        are looked up by label in `places`, and an absent field with a
        default takes it."""
        named = [f for f in fields(cls)[2:] if f.default is MISSING or f.name in doc]
        return cls(source, target, **{f.name: _json_field(doc, f, places) for f in named})


def _json_field(doc: dict, f, places: dict):
    value = doc.get(f.name)
    if f.type == "PrimePlace":
        return _place(places, value)
    if f.type == "bool" and not isinstance(value, bool):
        raise InputError(f"{f.name} must be true or false, not {value!r}")
    return value if f.type == "bool" else json_int(doc, f.name)


def _place(places: dict, label) -> PrimePlace:
    """The place a serialized label names; unknown labels are input errors."""
    if isinstance(label, str) and label in places:
        return places[label]
    raise InputError(f"unknown place label {label!r}")


@dataclass(eq=False)
class CentralTransport(QuotientIso):
    """Move the canonical order-m central factor from one place to another."""

    kind = "central_transport"
    from_place: PrimePlace
    to_place: PrimePlace
    scalar_order: int

    def __post_init__(self):
        m = self.scalar_order
        for q, place in ((self.source, self.from_place), (self.target, self.to_place)):
            cond = q.spec.condition_at(place)
            if not isinstance(cond, CentralPrincipal) or cond.order != m:
                raise InputError(
                    f"central transport of order {m} needs the matching central condition at {place.label}"
                )
        # Resolved once for _image: the two component indices, the exponent
        # k of the central part read mod p^depth at from_place (the first k
        # wins), and the scalars that move z^k from one place to the other:
        # z^(m-k) at from_place, z^k at to_place.  The central components'
        # setup holds each place's powers of its unit z and p^depth.
        self._i = self.source.place_index(self.from_place)
        self._j = self.target.place_index(self.to_place)
        c_i = self.source.components[self._i]
        c_j = self.target.components[self._j]
        self._depth_mod = c_i.mod
        self._exponent_of = {}
        for k, z in enumerate(c_i.scalars):
            self._exponent_of.setdefault(z % c_i.mod, k)
        self._scalar_i = [c_i.scalars[-k] for k in range(m)]
        self._scalar_j = c_j.scalars

    def _image(self, g):
        i, j = self._i, self._j
        k = self._exponent_of.get(g[i].entries[0][0] % self._depth_mod)
        if k is None:
            raise InputError("source component is not in the canonical central subgroup")
        out = list(g)
        out[i] = _scale(g[i], self._scalar_i[k])
        out[j] = _scale(g[j], self._scalar_j[k])
        return tuple(out)

    def invert(self) -> "CentralTransport":
        """The inverse twist; round-trips are exact identities on members."""
        return CentralTransport(
            self.target, self.source, self.to_place, self.from_place, self.scalar_order
        )


def _scale(mat, c):
    return mat if c == 1 else scalar_mul(c, mat)


@dataclass(eq=False)
class PlaceSwap(QuotientIso):
    """Exchange the components at two places over the same rational prime."""

    kind = "place_swap"
    from_place: PrimePlace
    to_place: PrimePlace

    def __post_init__(self):
        self._i = self.source.place_index(self.from_place)
        self._j = self.source.place_index(self.to_place)

    def _image(self, g):
        i, j = self._i, self._j
        out = list(g)
        # The two places over one split prime share the ring Z/p^e.  Places
        # with different rings are swapped all the same, and the verifier
        # refutes the image as a membership failure.
        out[i], out[j] = out[j], out[i]
        return tuple(out)

    def invert(self) -> "PlaceSwap":
        """The inverse twist: the same swap from the target back."""
        return PlaceSwap(self.target, self.source, self.from_place, self.to_place)


@dataclass(eq=False)
class GraphAutomorphism(QuotientIso):
    """Apply the diagram symmetry (or its inverse) to the component at one place."""

    kind = "graph_automorphism"
    place: PrimePlace
    reversed_graph: bool = False

    def __post_init__(self):
        self._i = self.source.place_index(self.place)

    def _image(self, g):
        i = self._i
        out = list(g)
        out[i] = (
            graph_automorphism_inverse(out[i])
            if self.reversed_graph
            else graph_automorphism(out[i])
        )
        return tuple(out)

    def invert(self) -> "GraphAutomorphism":
        """The inverse twist: the reversed symmetry from the target back."""
        return GraphAutomorphism(
            self.target, self.source, self.place, not self.reversed_graph
        )


# ---------------------------------------------------------------------------
# verification


@dataclass
class IsoReport:
    """Outcome of one verification run; verdict is witnessed only when every
    failure count is zero and the orders match.  The fields are the keys of
    the report's JSON form (dataclasses.asdict)."""

    samples_used: int
    homomorphism_failures: int
    membership_failures: int
    inverse_failures: int
    order_match: bool
    verdict: str
    exhaustive: bool
    master_seed: int

    @property
    def witnessed(self) -> bool:
        return self.verdict == "witnessed"


def verify_iso(iso: QuotientIso, sample_count: int = 10000, master_seed: int = 0) -> IsoReport:
    """Check a declared twist on generators, then pair by pair.

    Pair (x, y) checks (a) membership: apply(x) belongs to the target;
    (b) homomorphism: the image of x*y equals apply(x)*apply(y); (c) inverse:
    the declared inverse takes apply(x) back to x, whenever apply(x) is a
    member.  The exact orders must agree.

    A quotient of order at most EXHAUSTIVE_LIMIT is checked on every edge
    (x, s) of its Cayley graph: x runs over every element and s over the
    generators, the identity when there are none, and edge i is
    (element i // |S|, generator i % |S|).  Since S generates the group,
    apply(x*s) = apply(x)*apply(s) for all x and s gives apply(x*y) =
    apply(x)*apply(y) for all x and y, and round trips on every element with
    equal orders give a bijection: a "witnessed" verdict is then a proof.
    The generators must close on exactly src.order elements, or a
    RuntimeError is raised before any pair is checked.
    Larger quotients are checked on sample_count seeded pairs, pair i being
    sample(child_seed(master_seed, 2i)) and sample(child_seed(master_seed,
    2i + 1)); a "witnessed" verdict there means no counterexample was met.

    Pair i is a pure function of i, so the pairs are split into one
    contiguous index range per worker and the counts summed: the report is
    the same for any split.  There are w = max(1, min(len(usable_cpus()),
    pairs // PAIRS_PER_WORKER)) workers, one loop for any w; see
    _check_pairs_forked.
    """
    if sample_count < 1:
        raise InputError("sample_count must be >= 1")
    src, tgt = iso.source, iso.target
    inverse = iso.invert()
    gens = src.generators
    membership = 0
    # the source's own generators are its members, so no apply re-test
    for gen in gens:
        if not tgt.member(iso._image(gen)):
            membership += 1

    exhaustive = src.order <= EXHAUSTIVE_LIMIT
    if exhaustive:
        # the Cayley-graph edges prove the verdict only if S generates
        closed = enumerate_quotient(src, EXHAUSTIVE_LIMIT + 1)
        if closed is None or len(closed) != src.order:
            size = f"more than {EXHAUSTIVE_LIMIT + 1}" if closed is None else len(closed)
            raise RuntimeError(
                f"generators of the source close on {size} elements, not its order {src.order}"
            )
        elements = list(closed)
        steps = gens or [src.identity]
        samples_used, pairs = len(elements), len(elements) * len(steps)

        def pair(i):
            return elements[i // len(steps)], steps[i % len(steps)]

    else:
        samples_used = pairs = sample_count

        def pair(i):
            x = src.sample(child_seed(master_seed, 2 * i))
            return x, src.sample(child_seed(master_seed, 2 * i + 1))

    workers = max(1, min(len(usable_cpus()), pairs // PAIRS_PER_WORKER))
    pair_membership, homomorphism, inverse_failures = _check_pairs_forked(iso, inverse, pair, pairs, workers)
    membership += pair_membership

    order_match = src.order == tgt.order
    witnessed = membership == 0 and homomorphism == 0 and inverse_failures == 0 and order_match
    return IsoReport(
        samples_used=samples_used,
        homomorphism_failures=homomorphism,
        membership_failures=membership,
        inverse_failures=inverse_failures,
        order_match=order_match,
        verdict="witnessed" if witnessed else "refuted",
        exhaustive=exhaustive,
        master_seed=master_seed,
    )


def _check_pairs(iso, inverse, pair, start, stop):
    """(membership, homomorphism, inverse) failure counts over the pairs
    pair(i), start <= i < stop, with two source membership tests (apply on
    x and y) and one target test (of f(x)) per pair.  A pair outside the
    source is a fault of the sampler, not of the input: RuntimeError.

    x*y is multiplied once, and f(x)*f(y) reuses its components where the
    twist passed x and y through (see _image_product)."""
    tgt = iso.target
    membership = homomorphism = inverse_failures = 0
    for index in range(start, stop):
        x, y = pair(index)
        try:
            fx = iso.apply(x)
            fy = iso.apply(y)
        except InputError as exc:
            raise RuntimeError(f"pair {index}: {exc}") from None
        # x*y is a product of two members just tested, so a member itself
        xy = tuple_mul(x, y)
        if iso._image(xy) != _image_product(x, y, xy, fx, fy):
            homomorphism += 1
        # the one target test, which also admits fx to the inverse
        if not tgt.member(fx):
            membership += 1
        elif inverse._image(fx) != x:
            inverse_failures += 1
    return membership, homomorphism, inverse_failures


def _image_product(x, y, xy, fx, fy):
    """f(x)*f(y) componentwise, equal to tuple_mul(fx, fy).

    Component c is xy[k], the product x[k]*y[k] already made, wherever fx[c]
    is x[k] and fy[c] is y[k]: the very objects, which a twist passes
    through unchanged.  mat_mul is pure, so that is exactly mat_mul(fx[c],
    fy[c]).  The match is by identity, never by what a twist declares, so a
    component a twist alters or copies is multiplied as any other."""
    out = []
    for a, b in zip(fx, fy):
        for xk, yk, p in zip(x, y, xy):
            if a is xk and b is yk:
                out.append(p)
                break
        else:
            out.append(mat_mul(a, b))
    return tuple(out)


# ---------------------------------------------------------------------------
# pairs on several CPUs

# Fewer pairs than this per worker cost more in fork and start-up than a
# second CPU saves.
PAIRS_PER_WORKER = 50


def usable_cpus() -> list[int]:
    """The CPUs this process may run on, ascending, which verify_iso counts.
    Empty, so one worker, where the platform cannot fork or report them, or
    where other threads run: a forked child would hold copies of their locks
    but not the threads."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return []
    return sorted(os.sched_getaffinity(0))


def _check_pairs_forked(iso, inverse, pair, pairs, workers):
    """_check_pairs over [0, pairs) cut into w = `workers` chunks.

    Chunk k is [pairs*k//w, pairs*(k+1)//w): chunk 0 runs in this process,
    the others in forked children that send their counts back through a
    pipe, so one worker forks nothing.  An error in a chunk is re-raised
    here, the lowest chunk's first, as the one-process loop would meet it; a
    child that sends nothing is an error, never zero failures.  Every child
    is reaped before return, and killed first when the call fails.
    """
    cut = [pairs * k // workers for k in range(workers + 1)]
    children = []  # (pid, read end, first pair, stop) of children not yet reaped
    try:
        for k in range(1, workers):
            pid, read_end = _fork_chunk(iso, inverse, pair, cut[k], cut[k + 1])
            children.append((pid, read_end, cut[k], cut[k + 1]))
        totals = _check_pairs(iso, inverse, pair, cut[0], cut[1])
        while children:
            pid, read_end, start, stop = children[0]
            data = b"".join(iter(lambda: os.read(read_end, 1 << 16), b""))
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            os.close(read_end)
            if status != 0 or not data:
                raise RuntimeError(
                    f"the worker for pairs {start}..{stop - 1} ended without a result "
                    f"(wait status {status})"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            totals = tuple(a + b for a, b in zip(totals, value))
    except BaseException:
        for pid, *_ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read_end, *_ in children:
            os.close(read_end)
            os.waitpid(pid, 0)
    return totals


def _fork_chunk(iso, inverse, pair, start, stop):
    """Fork a child, run wherever the OS places it, that checks pairs
    [start, stop) and pickles (True, counts), or (False, the exception that
    stopped it), into a pipe; returns (pid, read end).

    The child leaves by os._exit, so no atexit handler runs and no stdio
    buffer inherited from this process is flushed a second time.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, read_end
    try:
        os.close(read_end)
        try:
            result = (True, _check_pairs(iso, inverse, pair, start, stop))
        except BaseException as exc:
            result = (False, exc)
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(result))
    finally:
        os._exit(0)

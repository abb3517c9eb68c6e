"""Straight-line matrix kernels, written as Python source for each n, or
for each generator table of a full or parabolic word, and compiled at
first use.  A kernel keeps every entry in a local, a{r}{c} or b{r}{c} with
one digit per index, and unrolls every loop but the word's: up to Python
3.11 each comprehension runs in a frame of its own."""

from __future__ import annotations

import functools

from .errors import InputError

GENERATED_MAX_N = 8


class Kernels(dict):
    """One kind's kernels by n: for 1 <= n <= GENERATED_MAX_N, the parameters
    and body emit(n) writes, compiled at the first lookup of n with `names`
    in its globals; for any other n, `generic`, which takes the same
    parameters (after n itself when `sized`) and is the tests' oracle.  (An
    adjugate at n = 9 runs to 1,500 lines.)"""

    def __init__(self, emit, generic, sized=False, **names):
        super().__init__()
        self.emit, self.generic, self.sized, self.names = emit, generic, sized, names

    def __missing__(self, n):
        kernel = functools.partial(self.generic, n) if self.sized else self.generic
        if 0 < n <= GENERATED_MAX_N:  # an empty determinant would read as 1
            name = f"{self.emit.__name__.removeprefix('emit_')}_{n}"
            kernel = compiled(name, *self.emit(n), **self.names)
        self[n] = kernel
        return kernel


def compiled(name, params, body, **names):
    """The function `name` of the given parameters and body lines, compiled
    with InputError and `names` in its globals."""
    source = "\n    ".join([f"def {name}({params}):", *body])
    namespace = {"InputError": InputError, **names}
    exec(compile(source, "<generated>", "exec"), namespace)
    return namespace[name]


class Minors:
    """Laplace expansions for one kernel.  det() names each minor of two or
    more rows once, as m0, m1, ..., and appends its line to `lines` after
    the lines of the minors it reads; one set of rows and columns gets one
    name whether it was reached along first rows or along last rows."""

    def __init__(self):
        self.lines, self.memo = [], {}

    def det(self, rows, cols, last=False) -> str:
        if len(rows) < 2:
            return f"a{rows[0]}{cols[0]}" if rows else "1"
        if (rows, cols) not in self.memo:
            expr = self.expand(rows, cols, last)
            self.memo[rows, cols] = f"m{len(self.memo)}"
            self.lines.append(f"{self.memo[rows, cols]} = {expr}")
        return self.memo[rows, cols]

    def expand(self, rows, cols, last=False, sign=1) -> str:
        """sign * det(rows x cols) along its first (or `last`) row, and so on."""
        if not rows:
            return str(sign)
        r, rest = (rows[-1], rows[:-1]) if last else (rows[0], rows[1:])
        terms = []
        for k, c in enumerate(cols):
            minor = self.det(rest, cols[:k] + cols[k + 1 :], last)
            # the entry in row i and column k of the submatrix has sign (-1)^(i + k)
            negative = (k + last * (len(rows) - 1)) % 2 != (sign < 0)
            terms.append((negative, f"a{r}{c}" if minor == "1" else f"a{r}{c} * {minor}"))
        terms.sort(key=lambda t: t[0])  # a positive term first saves a negation
        expr = "".join((" - " if negative else " + ") + term for negative, term in terms)
        return expr[3:] if expr[1] == "+" else "-" + expr[3:]


def _names(n, prefix="a"):
    return [[f"{prefix}{r}{c}" for c in range(n)] for r in range(n)]


def _rows(rows, tuples=False):
    """Source for rows of names: lists, or tuples when `tuples`."""
    o, c = ("(", ",)") if tuples else ("[", "]")
    return o + ", ".join(o + ", ".join(row) + c for row in rows) + c


def _determinant(n):
    """The minors' lines, det and (0, 0) cofactor of a first-row expansion."""
    m, every = Minors(), tuple(range(n))
    det = m.expand(every, every)
    return m.lines, det, m.det(every[1:], every[1:])


def emit_det(n):
    """det(rows): the exact integer determinant."""
    minors, det, _ = _determinant(n)
    return "rows", [f"{_rows(_names(n))} = rows", *minors, f"return {det}"]


def emit_mul(n):
    """mul(xe, ye, mod): the rows of the product, reduced."""
    a, b, idx = _names(n), _names(n, "b"), range(n)
    out = [[f"({' + '.join(f'{a[i][k]} * {b[k][j]}' for k in idx)}) % mod" for j in idx] for i in idx]
    return "xe, ye, mod", [f"{_rows(a)} = xe", f"{_rows(b)} = ye", f"return {_rows(out, True)}"]


def emit_adj(n, signs=None):
    """adj(e, mod): the rows of the adjugate, reduced; the inverse when det = 1.
    adj[i][j] = (-1)^(i+j) det(e without row j and column i) expands along
    first rows if j is in the upper half, else along last rows, so each
    half's cofactors share the minors of the other half's rows.  Given
    row `signs` s, out[i][j] = s_i * s_j * adj[n-1-j][n-1-i] instead, each
    sign folded into its cofactor's expansion."""
    m, every = Minors(), tuple(range(n))
    drop = [every[:k] + every[k + 1 :] for k in every]

    def cofactor(i, j, sign=1):  # sign * adj[i][j], reduced
        return f"({m.expand(drop[j], drop[i], 2 * j >= n, sign * (-1) ** (i + j))}) % mod"

    out = [[cofactor(i, j) if signs is None else cofactor(n - 1 - j, n - 1 - i, signs[i] * signs[j])
            for j in every] for i in every]
    return "e, mod", [f"{_rows(_names(n))} = e", *m.lines, f"return {_rows(out, True)}"]


def emit_reduce(n):
    """reduce(rows, ring): closed(ring, the rows reduced into the ring),
    refused unless square, of ints (see integers) and of determinant 1."""
    a, (minors, det, _) = _names(n), _determinant(n)
    flat = [x for row in a for x in row]
    return "rows, ring", [
        "mod = ring.modulus",
        "try:",
        f"    {_rows(a)} = rows",
        "except ValueError:",
        '    raise InputError("entries must form a square matrix") from None',
        f"if not {' is '.join(f'type({x})' for x in flat)} is int:",
        f"    integers(({', '.join(flat)},))",
        f"{', '.join(flat)} = {', '.join(x + ' % mod' for x in flat)}",
        *minors,
        f"if ({det}) % mod != 1:",
        '    raise InputError("determinant is not 1 in the ring")',
        f"return closed(ring, {_rows(a, True)})",
    ]


def emit_principal(n):
    """principal(r, span, step, scalar, ring): the SLMat scalar * (1 + step *
    X), with X's n^2 entries the next digits of r from range(span), row by
    row, and the (0, 0) entry moved so that the determinant is 1 mod the
    ring's modulus; and what is left of r.  det is affine in that entry,
    with its cofactor as slope, and the row-0 expansion is evaluated again
    on the moved entry from the same minors of rows 1..n-1; scaling keeps
    det at 1 when scalar^n = 1.  Refused with SLMat's message otherwise."""
    a, (minors, det, cofactor) = _names(n), _determinant(n)
    flat = [x for row in a for x in row]
    terms = [f"{'1 + ' * (i == j)}step * {a[i][j]}" for i in range(n) for j in range(n)]
    return "r, span, step, scalar, ring", [
        "mod = ring.modulus",
        *(f"r, {x} = divmod(r, span)" for x in flat),
        f"{', '.join(flat)} = {', '.join(terms)}",
        *minors,
        f"det = ({det}) % mod",
        "if det != 1:",
        f"    a00 = (a00 + (1 - det) * pow({cofactor}, -1, mod)) % mod",
        f"    det = ({det}) % mod",
        f"if det != 1 or pow(scalar, {n}, mod) != 1:",
        '    raise InputError("determinant is not 1 in the ring")',
        f"{', '.join(flat)} = {', '.join(f'scalar * {x} % mod' for x in flat)}",
        f"return closed(ring, {_rows(a, True)}), r",
    ]


def emit_scale(n):
    """scale(c, e, mod): the rows of c times e, reduced."""
    a = _names(n)
    out = [[f"c * {x} % mod" for x in row] for row in a]
    return "c, e, mod", [f"{_rows(a)} = e", f"return {_rows(out, True)}"]


def emit_scalar(n):
    """scalar(e, mod): z in [0, mod) with e = z * 1 mod `mod`, else None."""
    a, every = _names(n), range(n)
    tests = [f"({a[i][j]} - a00) % mod" if i == j else f"{a[i][j]} % mod"
             for i in every for j in every if i or j]
    body = [f"if {' or '.join(tests)}:", "    return None"] if n > 1 else []
    return "e, mod", [f"{_rows(a)} = e", *body, "return a00 % mod"]


def _weyl_signs(n):
    """Row signs s of w0 = diag(s) * J: -1 on row 0 iff the reversal J is odd."""
    return (-1 if (n * (n - 1) // 2) % 2 == 1 else 1,) + (1,) * (n - 1)


def emit_graph(n):
    """graph(e, mod): the rows of the diagram symmetry (see parabolics),
    emit_adj with w0's row signs."""
    return emit_adj(n, _weyl_signs(n))


def emit_graph_inverse(n):
    """graph_inverse(e, mod): emit_graph with w0's row signs reversed."""
    return emit_adj(n, _weyl_signs(n)[::-1])


@functools.cache
def word_kernel(n, ops, mod, max_len, closed):
    """The word kernel that emit_word writes, compiled once per process for
    each (n, ops, modulus, max_len), with `closed` in its globals."""
    return compiled("word", *emit_word(n, ops, mod, max_len), closed=closed)


def emit_word(n, ops, mod, max_len):
    """word(r, ring): closed(ring, the reduced rows of a product of 1 to
    max_len generators), and what is left of r; ring's modulus is mod.
    ops[g] lists generator g's column operations (c, ((k, a_k), ...)):
    column c becomes sum_k a_k * column k, a_k in [0, mod) (see
    quotients._column_ops) or None for t, the factor's multiplier.  The
    draws are the length, from range(max_len), then per factor g from
    range(len(ops)), or g + len(ops) * t from range(len(ops) * mod) if ops
    hold a None; an if-tree dispatches g.  Only integers and t enter the
    source.  The word is kept as packed columns c0..c{n-1}, row r of one in
    bits [r*w, (r+1)*w) for w = max_len * (n * mod).bit_length(); a factor is
    one tuple assignment of the columns it moves, so one multiply-add of
    whole integers per term acts on every row at once.  Fields never carry or
    borrow: a factor multiplies the largest entry by less than n * mod, as
    t < mod, so every entry stays below (n * mod)^max_len <= 2^w.  Each entry
    is reduced once, at the end.  The caller vouches for the determinant:
    a product of generators of determinant 1 has determinant 1."""
    w, count = max_len * (int(n) * int(mod)).bit_length(), len(ops)
    drawn = any(a is None for op in ops for _, terms in op for _, a in terms)

    def tree(lo, hi, pad):  # the factor for lo <= g < hi
        if hi - lo > 1:
            mid = (lo + hi) // 2
            return [f"{pad}if g < {mid}:", *tree(lo, mid, pad + "    "),
                    f"{pad}else:", *tree(mid, hi, pad + "    ")]
        sums = [" + ".join(f"c{int(k)}" if a == 1 else f"{'t' if a is None else int(a)} * c{int(k)}"
                           for k, a in terms)
                for _, terms in ops[lo]]
        columns = ", ".join(f"c{int(c)}" for c, _ in ops[lo])
        return [f"{pad}{columns} = {', '.join(sums)}" if ops[lo] else f"{pad}pass"]

    mask, cols = (1 << w) - 1, [f"c{k}" for k in range(n)]
    # the last row lies in the top bits, with nothing above it to mask off
    rows = [[f"({c}{f' >> {r * w}' * (r > 0)}{f' & {mask:#x}' * (r < n - 1)}) % {int(mod)}" for c in cols]
            for r in range(n)]
    return "r, ring", [
        f"r, length = divmod(r, {int(max_len)})",
        f"{', '.join(cols)} = {', '.join(f'{1 << k * w:#x}' for k in range(n))}",
        "for _ in range(length + 1):",
        f"    r, g = divmod(r, {count * int(mod) if drawn else count})",
        *([f"    t, g = divmod(g, {count})"] if drawn else []),
        *tree(0, count, "    "),
        f"return closed(ring, {_rows(rows, True)}), r",
    ]

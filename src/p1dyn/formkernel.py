"""Straight-line kernels for the forms of a map, one per form shape.

The forms of a map are evaluated by a kernel from form_kernel: a
RationalMap's image of a point and its composition, the height engine's
loops, and periodic's fixed-point lift, whose complex integers are basis
pairs at t = 0.  A lone Poly, a curve's G among them, is evaluated on
field elements by Poly.__call__ and compiles nothing.  A shape is (t,
deg, forms), t as in quadfield.pair_mul and each form as the tuple of
its terms (k, general), general when the coefficient of x0^k x1^(deg-k)
is not rational.  kernel_factory writes Python source without
loops or coefficient literals,

    def make(k0, k1, ...):
        def kernel(a0, b0, a1, b1, mod=0): ...
        return kernel

and compiles it once per shape, as dataclasses builds __init__.  A kernel
takes and returns flat ints: x0 = (a0, b0) and x1 = (a1, b1) as basis
pairs, and one (u, v) per form, (u0, v0, u1, v1) for a map's two forms,
so a caller that loops on it unpacks and passes ints without building a
pair per step;
form_kernel binds one int per rational coefficient and two per other by
calling make, so no coefficient is ever turned into digits.  The source
is compiled under a filename that names the shape, <form_kernel t=..
r=.. deg=.. hash>, and stays in linecache while the factory is cached,
so profiles tell the kernels apart and a traceback shows the generated
line.  The module is imported by the first kernel, so a process that
evaluates no map's forms never compiles it.
"""

import linecache
import math
import weakref
from functools import lru_cache


def _forget(name: str, entry: tuple) -> None:
    # a later factory of the same shape may have registered the name anew
    if linecache.cache.get(name) is entry:
        del linecache.cache[name]


@lru_cache(maxsize=128)
def kernel_factory(shape: tuple):
    """make for a shape, as above.

    The stride r is the gcd of the exponent gaps within each form (1 if
    none has two terms), so a form is x0^s x1^s' G(X, Y), X = x0^r,
    Y = x1^r, s and s' < r: r is 2 for a Lattes map of E1 and 3 for one
    of E2, which commutes with z -> -z or z -> omega z.  The kernel builds
    each power of x0 and x1 that the forms need by squares, in steps of r
    above r, reduced mod `mod` if set, and each monomial once; it takes two
    int products per rational coefficient and a pair product per other,
    starts each sum at its first term, and reduces each G times its
    prefactor mod `mod` once, at the end.
    """
    t, deg, forms = shape
    r = math.gcd(*(k - f[0][0] for f in forms for k, _ in f)) or 1
    body = ["if mod: a0, b0, a1, b1 = "
            "a0 % mod, b0 % mod, a1 % mod, b1 % mod"]
    pows = {(0, 1): ("a0", "b0"), (1, 1): ("a1", "b1")}
    prods, args, outs = {}, [], []
    tq = "q" if t == 1 else f"{t} * q"

    def mul(x, y):
        # x y on basis pairs, computed once, into fresh names; None is 1.
        # (a + b w)(c + e w) = (ac - be, ae + bc + t be) as w^2 = t w - 1
        if not (x and y):
            return x or y
        if (x, y) not in prods:
            (a, b), (c, e), n = x, y, len(body)
            cross = f"2 * {a} * {b}" if x == y else f"{a} * {e} + {b} * {c}"
            if t:
                body.append(f"q = {b} * {e}")
                body.append(f"u{n}, v{n} = {a} * {c} - q, {cross} + {tq}")
            elif x == y:
                body.append(f"u{n}, v{n} = ({a} + {b}) * ({a} - {b}), {cross}")
            else:
                body.append(f"u{n}, v{n} = {a} * {c} - {b} * {e}, {cross}")
            prods[x, y] = f"u{n}", f"v{n}"
        return prods[x, y]

    def power(i, k):
        # x_i^k, or None for k = 0
        if k and (i, k) not in pows:
            step = r if k > r else 1
            h = k // 2 if k // step % 2 == 0 else k - step
            u, v = pows[i, k] = mul(power(i, h), power(i, k - h))
            body.append(f"if mod: {u}, {v} = {u} % mod, {v} % mod")
        return pows.get((i, k))

    for form in forms:
        s = (form[0][0] if form else 0) % r
        s1, u, v = (deg - s) % r, f"s{len(outs)}", f"w{len(outs)}"
        if not form:
            body.append(f"{u} = {v} = 0")
        for i, (k, general) in enumerate(form):
            m = mul(power(0, k - s), power(1, deg - k - s1))
            cu, cv = f"k{len(args)}", f"k{len(args) + 1}" if general else "0"
            args += [cu, cv][:1 + general]
            tu, tv = (mul((cu, cv), m) if general or not m
                      else (f"{cu} * {m[0]}", f"{cu} * {m[1]}"))
            body.append(f"{u}, {v} = {u} + {tu}, {v} + {tv}" if i
                        else f"{u}, {v} = {tu}, {tv}")
        outs.append(mul(mul((u, v), power(0, s)), power(1, s1)))
    reduced = ", ".join(f"{u} % mod, {v} % mod" for u, v in outs)
    body += [f"if mod: return {reduced},",
             "return {},".format(", ".join(f"{u}, {v}" for u, v in outs))]
    src = "".join([f"def make({', '.join(args)}):\n",
                   "    def kernel(a0, b0, a1, b1, mod=0):\n",
                   *(f"        {line}\n" for line in body),
                   "    return kernel\n"])
    # ints and bools only, so the hash does not depend on PYTHONHASHSEED
    name = f"<form_kernel t={t} r={r} deg={deg} {hash(shape) & 0xFFFFFFFF:08x}>"
    scope = {}
    exec(compile(src, name, "exec"), scope)
    # popped, so that make is freed as soon as the cache drops it
    make = scope.pop("make")
    entry = linecache.cache[name] = (
        len(src), None, src.splitlines(True), name)
    weakref.finalize(make, _forget, name, entry)
    return make


def form_kernel(forms: list, deg: int, t: int):
    """kernel(a0, b0, a1, b1, mod=0): sum_k c_k x0^k x1^(deg-k) for
    x0 = (a0, b0) and x1 = (a1, b1) on basis pairs, for each form's
    nonzero terms (k, c), reduced mod `mod` if set, as the flat tuple
    (u0, v0, u1, v1, ...) of the forms' basis pairs."""
    make = kernel_factory((t, deg, tuple(
        tuple((k, bool(c[1])) for k, c in form) for form in forms)))
    return make(*(x for form in forms for _, c in form
                  for x in c[:1 + bool(c[1])]))

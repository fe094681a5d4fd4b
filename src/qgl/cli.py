"""Command-line front end.

Every subcommand prints a single JSON document (or a plain-text rendering
with --emit text) and exits 0 on success, 2 on a syntax/usage error, 3 on
a domain error, and 4 when the self-test battery fails.  Identical
arguments, seed, and configuration produce byte-identical output.

Each handler imports the layers it calls when it runs, so a one-shot
command loads only those, and only the handlers that use an Algebra build
one.  The parser (``expr``, which imports only ``errors``) is the one
exception, imported here for every command: the benchmark's own test
(``bench/test_bench.py``) checks that its tracer rebinds
``cli.parse_element``.
"""

import argparse
import json
import sys

from .errors import DomainError, ExprSyntaxError, ResourceLimit, check_int_size
from .expr import element_to_json, parse, parse_element, print_canonical, term_to_json
from .rootdata import (
    Shape,
    _check_order,
    frobenius_decompose,
    is_typical,
    p_factor,
    weight_to_z,
)

# The most trials selftest runs: each is three random products and a print
# and parse round trip, and a count over this exits 3 before any trial runs.
_MAX_TRIALS = 10000


def _parse_ints(text, what):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ExprSyntaxError("%s must be comma-separated integers, got %r" % (what, text), 0)


def _load_config(path):
    cfg = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ExprSyntaxError("cannot read config file %r: %s" % (path, e), 0)
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ExprSyntaxError("bad config line: %r" % line, 0)
        key, _, val = line.partition("=")
        cfg[key.strip()] = val.strip()
    bad = set(cfg) - {"shape", "seed"}
    if bad:
        raise ExprSyntaxError("unknown config keys: %s" % ", ".join(sorted(bad)), 0)
    if "seed" in cfg:
        try:
            cfg["seed"] = int(cfg["seed"])
        except ValueError:
            raise ExprSyntaxError("config seed must be an integer, got %r" % cfg["seed"], 0)
    return cfg


def _emit(args, payload, text_fn=None):
    payload = {"schema": 1, **payload}
    if args.emit == "text" and text_fn is not None:
        sys.stdout.write(text_fn() + "\n")
    else:
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


def _algebra(shape):
    from .pbwcore import Algebra

    return Algebra(shape)


def _emit_element(args, elt):
    return _emit(args, {"element": element_to_json(elt)}, lambda: print_canonical(elt))


def _character_json(char):
    return [
        {"z": list(z), "mult": mult} for z, mult in sorted(char.items())
    ]


def _tensor_json(te):
    return [
        {"coeff": coeff.render(), "left": term_to_json(a, "1"), "right": term_to_json(b, "1")}
        for (a, b), coeff in te.sorted_terms()
    ]


# -- subcommand handlers -----------------------------------------------------


def _cmd_nf(args, shape):
    if args.emit_ast:
        return _emit(args, {"ast": parse(args.expr, shape)})
    return _emit_element(args, parse_element(args.expr, _algebra(shape)))


def _cmd_mul(args, shape):
    alg = _algebra(shape)
    a = parse_element(args.expr1, alg)
    b = parse_element(args.expr2, alg)
    return _emit_element(args, a * b)


def _cmd_delta(args, shape):
    from .hopf import Hopf

    alg = _algebra(shape)
    te = Hopf(alg).delta(parse_element(args.expr, alg))
    return _emit(args, {"tensor_terms": _tensor_json(te)})


def _cmd_antipode(args, shape):
    from .hopf import Hopf

    alg = _algebra(shape)
    return _emit_element(args, Hopf(alg).antipode(parse_element(args.expr, alg)))


def _cmd_counit(args, shape):
    from .hopf import Hopf

    alg = _algebra(shape)
    val = Hopf(alg).counit(parse_element(args.expr, alg))
    return _emit(args, {"counit": val.render()}, lambda: val.render())


def _cmd_omega(args, shape):
    return _emit_element(args, parse_element(args.expr, _algebra(shape)).omega())


def _cmd_braid(args, shape):
    from .braid import braid_t, braid_t_inv

    alg = _algebra(shape)
    op = braid_t_inv if args.inverse else braid_t
    return _emit_element(args, op(alg, args.node, parse_element(args.expr, alg)))


def _cmd_typical(args, shape):
    lam = _parse_ints(args.lam, "--lambda")
    p = p_factor(shape, lam)
    check_int_size(p, "P")
    return _emit(args, {"typical": is_typical(shape, lam), "P": p})


def _cmd_kac(args, shape):
    lam = _parse_ints(args.lam, "--lambda")
    char = _character(_algebra(shape), lam, "kac")
    dim = sum(char.values())
    return _emit(
        args,
        {
            "dim": dim,
            "dim_even": dim // (2 ** (shape.m * shape.n)),
            "character": _character_json(char),
        },
    )


def _character(alg, lam, kind, at_root=None):
    """The character of the Kac module of highest weight lam, read off its
    weights, which do not depend on q (a root order at_root is still
    checked); or of the simple module: over Q(q) the Kac character for a
    typical lam (Kac's theorem) and otherwise from the raising half of the
    Kac module, or at q = eta for the root order at_root."""
    if kind == "kac":
        from .repmod import kac_character

        if at_root is not None:
            _check_order(at_root)
        return kac_character(alg, lam)
    if at_root is not None:
        from .rootofunity import simple_at_root

        return simple_at_root(alg, weight_to_z(alg.shape, lam), at_root).character()
    from .repmod import simple_character

    return simple_character(alg, lam)


def _cmd_simple(args, shape):
    char = _character(_algebra(shape), _parse_ints(args.lam, "--lambda"), "simple", args.at_root)
    return _emit(args, {"dim": sum(char.values()), "character": _character_json(char)})


def _cmd_char(args, shape):
    char = _character(_algebra(shape), _parse_ints(args.lam, "--lambda"), args.module, args.at_root)
    return _emit(args, {"character": _character_json(char)})


def _cmd_tensor(args, shape):
    """The product of the factors' characters: no tensor module is built."""
    from .repmod import character_product

    alg = _algebra(shape)
    c1 = _character(alg, _parse_ints(args.lam1, "--lambda1"), args.module)
    c2 = _character(alg, _parse_ints(args.lam2, "--lambda2"), args.module)
    char = character_product(c1, c2)
    return _emit(args, {"dim": sum(char.values()), "character": _character_json(char)})


def _cmd_specialize(args, shape):
    from .rootofunity import specialize_element

    alg = _algebra(shape)
    elt = parse_element(args.expr, alg)
    coords = specialize_element(alg, elt, args.l)
    terms = []
    for (fd, fpsi, deltas, ts, epsi, ed), val in sorted(coords.items()):
        terms.append(
            {
                "fd": list(fd),
                "fpsi": list(fpsi),
                "k_delta": list(deltas),
                "k_bracket": list(ts),
                "epsi": list(epsi),
                "ed": list(ed),
                "coeff": val.render(),
            }
        )
    return _emit(args, {"l": args.l, "terms": terms})


def _cmd_smallgroup(args, shape):
    from .rootofunity import small_group_counts

    counts = small_group_counts(shape, args.l)
    check_int_size(counts["full"], "the count full")  # the largest count
    return _emit(args, {"l": args.l, "counts": counts})


def _cmd_classical_check(args, shape):
    from .rootofunity import classical_limit_check

    results = classical_limit_check(_algebra(shape))
    return _emit(
        args,
        {
            "checks": [{"name": name, "ok": ok} for name, ok in results],
            "all_ok": all(ok for _, ok in results),
        },
    )


def _cmd_decompose_z(args, shape):
    z = _parse_ints(args.z, "--z")
    zp, zpp = frobenius_decompose(shape, z, args.l)
    return _emit(
        args,
        {"z": list(z), "l": args.l, "z_restricted": list(zp), "z_frobenius": list(zpp)},
    )


def _cmd_selftest(args, shape):
    import random

    from .relations import all_relations

    trials = args.trials
    if trials < 0:
        raise ExprSyntaxError("--trials must be at least 0, got %d" % trials, 0)
    if trials > _MAX_TRIALS:
        raise ResourceLimit("--trials %d is over the budget of %d" % (trials, _MAX_TRIALS))
    alg = _algebra(shape)
    rng = random.Random(args.seed)
    passed, failed, details = 0, 0, []

    def record(name, ok):
        nonlocal passed, failed
        if ok:
            passed += 1
        else:
            failed += 1
            details.append(name)

    for name, el in all_relations(alg):
        record("relation:%s" % name, el.is_zero())

    gens = [
        alg.gen(kind, i, j)
        for kind in ("E", "F")
        for (i, j) in list(shape.I0) + list(shape.I1)
    ]
    mu = [0] * shape.rank
    mu[0] = 1
    gens.append(alg.k_mono(tuple(mu)))
    for t in range(trials):
        a, b, c = (rng.choice(gens) for _ in range(3))
        record("assoc:%d" % t, (a * b) * c == a * (b * c))
    for t in range(trials):
        x = rng.choice(gens) * rng.choice(gens)
        if x.is_zero():
            record("roundtrip:%d" % t, True)
            continue
        record("roundtrip:%d" % t, parse_element(print_canonical(x), alg) == x)
    _emit(
        args,
        {
            "seed": args.seed,
            "trials": trials,
            "passed": passed,
            "failed": failed,
            "failures": details,
        },
    )
    return 0 if failed == 0 else 4


# -- argument wiring ---------------------------------------------------------


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--shape", help="m,n block sizes (required)")
    common.add_argument("--emit", choices=["json", "text"], default="json")
    common.add_argument("--config", help="flat key=value config file")

    p = argparse.ArgumentParser(prog="qgl", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, handler, **kw):
        sp = sub.add_parser(name, parents=[common], **kw)
        sp.set_defaults(handler=handler)
        return sp

    sp = add("nf", _cmd_nf, help="straighten an expression to normal form")
    sp.add_argument("expr")
    sp.add_argument("--emit-ast", action="store_true",
                    help="emit the parse tree instead, without evaluating it")
    sp = add("mul", _cmd_mul, help="multiply two expressions")
    sp.add_argument("expr1")
    sp.add_argument("expr2")
    for name, handler in (
        ("delta", _cmd_delta),
        ("antipode", _cmd_antipode),
        ("counit", _cmd_counit),
        ("omega", _cmd_omega),
    ):
        sp = add(name, handler, help="apply %s to an expression" % name)
        sp.add_argument("expr")
    sp = add("braid", _cmd_braid, help="apply a braid operator")
    sp.add_argument("expr")
    sp.add_argument("-i", "--node", type=int, required=True)
    sp.add_argument("--inverse", action="store_true")
    sp = add("typical", _cmd_typical, help="typicality of a weight")
    sp.add_argument("--lambda", dest="lam", required=True)
    sp = add("kac", _cmd_kac, help="Kac module data")
    sp.add_argument("--lambda", dest="lam", required=True)
    sp = add("simple", _cmd_simple, help="simple highest-weight module data")
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--at-root", type=int)
    sp = add("char", _cmd_char, help="character of a module")
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--module", choices=["kac", "simple"], default="simple")
    sp.add_argument("--at-root", type=int)
    sp = add("tensor", _cmd_tensor, help="tensor product character")
    sp.add_argument("--lambda1", dest="lam1", required=True)
    sp.add_argument("--lambda2", dest="lam2", required=True)
    sp.add_argument("--module", choices=["kac", "simple"], default="kac")
    sp = add("specialize", _cmd_specialize, help="integral coordinates at a root of unity")
    sp.add_argument("expr")
    sp.add_argument("-l", type=int, required=True)
    sp = add("smallgroup", _cmd_smallgroup, help="small quantum group dimensions")
    sp.add_argument("--counts", action="store_true",
                    help="accepted and ignored: the counts are always printed")
    sp.add_argument("-l", type=int, required=True)
    add("classical-check", _cmd_classical_check, help="q -> 1 Serre presentation check")
    sp = add("decompose-z", _cmd_decompose_z, help="restricted/Frobenius weight split")
    sp.add_argument("--z", required=True)
    sp.add_argument("--l", type=int, required=True)
    sp = add("selftest", _cmd_selftest, help="deterministic self-test battery")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--trials", type=int, default=50)
    return p


def run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        cfg = _load_config(args.config) if args.config else {}
        shape_text = args.shape or cfg.get("shape")
        if not shape_text:
            raise ExprSyntaxError("--shape m,n is required (flag or config)", 0)
        mn = _parse_ints(shape_text, "--shape")
        if len(mn) != 2:
            raise ExprSyntaxError("--shape needs exactly two integers", 0)
        if getattr(args, "seed", 0) is None:  # the flag, else the config, else 0
            args.seed = cfg.get("seed", 0)
        return args.handler(args, Shape(*mn))
    except ExprSyntaxError as e:
        sys.stderr.write("syntax error at offset %d: %s\n" % (e.offset, e))
        return 2
    except DomainError as e:
        sys.stderr.write("domain error: %s\n" % (e,))
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

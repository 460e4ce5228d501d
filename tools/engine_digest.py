"""Print a count and a sha256 digest of the engine's results on a fixed grid,
or compare the grid's results at a git revision with the working tree's.

Two checkouts whose engines agree bit for bit print the same two lines of

    PYTHONPATH=src python tools/engine_digest.py

run in each checkout on one machine.  The package is imported from
PYTHONPATH, not from this file's checkout.  With

    PYTHONPATH=src python tools/engine_digest.py --against HEAD^

the grid runs twice, at once, in two fresh interpreters: on the package of
a temporary git worktree of the revision and on that of this file's
working tree, uncommitted changes included.  It prints both digests, how
many results differ, the largest |dP| over the revision's bars
(truncation + quadrature; a differential's bar is the sum of its two
operands') and over |P|, and how many terms_used moved, and exits 1 if any
result differs.  The digest depends on the host's numpy build and SIMD
dispatch, so the comparison is made on one host, not against a recorded
value.

The grid crosses gaps from 20 nm to 1 um; temperatures from T = 0 through
the 1 mK crossover and T_c = 0.9 K (0.8999 K lies just below it) up to
300 K; the 15 unordered pairs of an ideal metal, plasma, Drude, a two-fluid
superconductor and a second Drude metal; and four numerics: the default,
both tolerances at 1e-11, the smallest frequency rule (LifshitzNumerics'
class constant t_zero_nodes set to 8 for the cell) and a tight series
tolerance.  At each (gap, T, numerics) every pair is evaluated alone by
plate_pressure, all pairs as one plate_pressures batch, and every pair as
the first operand of a differential_pressure against the next pair.

The pairs of a batch share the first k-pass; every later pass holds one
pair.  The first pass builds its y grid once and evaluates its pairs one
at a time over it, and a pair whose k-ladder climbs leaves the grid at
the climb's nodes, so the next pair builds it again.  The grid covers
first passes of 1, 2 and 15 pairs at every row count they make (the
228-row Matsubara passes, the 180-row passes of the smallest frequency
rule and the 129-row T = 0 passes) and the one-pair passes after them:
the 354-row steps at 1e-11, where k-ladders climb, which run in slices
of 228 and 126 rows, and the rungs that frequency ladders climb to.  One more cell, at 100 nm and 1.3 K with the default
and 1e-11 numerics, holds 40 distinct pairs: the 14 pairs other than
ideal/ideal with omega_p scaled by 1, 0.95 and 0.9, the first 40 of them.
It is evaluated the same three ways.
The digest covers the repr of each PressureResult and of each
differential, in that order.
"""

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile

import casimirchip
from casimirchip import (
    DEFAULT_NUMERICS,
    Drude,
    IdealMetal,
    LifshitzNumerics,
    Plasma,
    SuperconductorTwoFluid,
    differential_pressure,
    plate_pressure,
    plate_pressures,
)

GAPS = (20e-9, 100e-9, 300e-9, 1e-6)
TEMPERATURES = (0.0, 1e-9, 0.01, 0.1, 0.5, 0.8999, 0.95, 1.3, 4.0, 10.0, 300.0)
MATERIALS = (
    IdealMetal(),
    Plasma(1.83e16),
    Drude(1.83e16, 7.6e13),
    SuperconductorTwoFluid(1.83e16, 7.6e13, t_c=0.9),
    Drude(1.37e16, 5.32e13),
)
PAIRS = list(itertools.combinations_with_replacement(MATERIALS, 2))
# (numerics, t_zero_nodes); None keeps the package's own.
NUMERICS = (
    (DEFAULT_NUMERICS, None),
    (LifshitzNumerics(rel_tol_quadrature=1e-11, rel_tol_series=1e-11), None),
    (DEFAULT_NUMERICS, 8),
    (LifshitzNumerics(rel_tol_series=1e-9), None),
)


@contextlib.contextmanager
def frequency_nodes(num, nodes):
    """num, with LifshitzNumerics' class constant t_zero_nodes set to nodes
    while the block runs."""
    if nodes is None:
        yield num
    else:
        saved, LifshitzNumerics.t_zero_nodes = LifshitzNumerics.t_zero_nodes, nodes
        try:
            yield num
        finally:
            LifshitzNumerics.t_zero_nodes = saved


def scaled(model, factor):
    """model with omega_p scaled by factor; the ideal metal has none."""
    if isinstance(model, IdealMetal):
        return model
    # rebuilt by its constructor from its fields
    return type(model)(**{**vars(model), "omega_p": factor * model.omega_p})


MANY_PAIRS = [(scaled(a, factor), scaled(b, factor))
                 for factor in (1.0, 0.95, 0.9) for a, b in PAIRS[1:]][:40]


def bar(result):
    """The error bar of a PressureResult: truncation + quadrature."""
    return result.truncation_estimate + result.quadrature_estimate


def cell(gap, temp, pairs, num):
    """Each pair alone, all pairs as one batch, then each pair's differential.

    Each result comes with its bar; a differential's is the sum of its two
    operands' solo bars.
    """
    solo = [plate_pressure(gap, temp, mat_a, mat_b, num) for mat_a, mat_b in pairs]
    for result in solo + plate_pressures(gap, temp, pairs, num):
        yield result, bar(result)
    for (mat_a, mat_b), reference, own, other in zip(pairs, pairs[1:] + pairs[:1],
                                                      solo, solo[1:] + solo[:1]):
        yield (differential_pressure(gap, temp, mat_a, mat_b, reference, num),
               bar(own) + bar(other))


def results():
    """Every result on the grid with its bar, then the 40-pair cell's, in a fixed order."""
    for gap, temp, (num, nodes) in itertools.product(GAPS, TEMPERATURES, NUMERICS):
        with frequency_nodes(num, nodes) as cell_num:
            yield from cell(gap, temp, PAIRS, cell_num)
    for num, _ in NUMERICS[:2]:
        yield from cell(100e-9, 1.3, MANY_PAIRS, num)


def records():
    """(repr, value, terms_used or None, bar) of every result, in digest order."""
    for result, result_bar in results():
        # A differential is a bare float.
        yield (repr(result), getattr(result, "pressure", result),
               getattr(result, "terms_used", None), result_bar)


def digest(reprs):
    """The count and the sha256 hex digest of the reprs, one per line."""
    hashed, count = hashlib.sha256(), 0
    for text in reprs:
        hashed.update(text.encode() + b"\n")
        count += 1
    return count, hashed.hexdigest()


def check_package():
    """Exits unless casimirchip was imported from PYTHONPATH: a package from
    anywhere else would compare a tree with itself."""
    src = os.path.realpath(os.environ["PYTHONPATH"])
    if os.path.commonpath([src, os.path.realpath(casimirchip.__file__)]) != src:
        sys.exit(f"casimirchip was imported from {casimirchip.__file__}, not from {src}")


def dump():
    """Writes records() to stdout as JSON; the child side of --against."""
    check_package()
    json.dump(list(records()), sys.stdout)


def run_against(rev, code):
    """The stdout of ``code``, run at once in two fresh interpreters in this
    directory: on the package of a temporary git worktree of rev and on that
    of this file's working tree, uncommitted changes included.  Exits if
    either fails."""
    here = os.path.dirname(os.path.abspath(__file__))
    top = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True,
                         check=True, cwd=here).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree")
        subprocess.run(["git", "-C", top, "worktree", "add", "--quiet", "--detach", tree, rev],
                       check=True)
        try:
            processes = [
                subprocess.Popen([sys.executable, "-c", code], cwd=here, stdout=subprocess.PIPE,
                                 text=True, env=dict(os.environ, PYTHONPATH=f"{root}/src"))
                for root in (tree, top)]
            outs = [process.communicate()[0] for process in processes]
        finally:
            subprocess.run(["git", "-C", top, "worktree", "remove", "--force", tree], check=True)
    if any(process.returncode for process in processes):
        sys.exit("a run failed; its error is above")
    return outs


def compare(old, new):
    """The lines --against prints, and whether any result differs."""
    lines = [f"results {len(old)} at the revision, {len(new)} in the working tree"]
    for where, recs in (("at the revision", old), ("in the working tree", new)):
        lines.append(f"sha256 {digest(r[0] for r in recs)[1]} {where}")
    differ = sum(a[0] != b[0] for a, b in zip(old, new)) + abs(len(old) - len(new))
    # The largest |dP| over the bar and over |P|, of pressures and of differentials.
    worst = {"pressures": [0.0, 0.0], "differentials": [0.0, 0.0]}
    moved = 0
    for (_, value, terms, result_bar), (_, new_value, new_terms, _) in zip(old, new):
        delta = abs(new_value - value)
        if delta:
            kind = worst["differentials" if terms is None else "pressures"]
            kind[0] = max(kind[0], delta / result_bar if result_bar else math.inf)
            kind[1] = max(kind[1], delta / abs(value) if value else math.inf)
        moved += terms != new_terms
    lines.append(f"differ {differ}")
    for column, name in enumerate(("(truncation + quadrature)", "|P|")):
        lines.append(f"max |dP|/{name} " + ", ".join(
            f"{values[column]:.3g} of {kind}" for kind, values in worst.items()))
    lines.append(f"terms_used moved {moved}")
    return lines, differ > 0


def against(rev):
    """Runs the grid at rev and in the working tree; 1 if they differ."""
    outs = run_against(rev, "import engine_digest; engine_digest.dump()")
    lines, differs = compare(*(json.loads(out) for out in outs))
    print("\n".join(lines))
    return int(differs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="compare the grid's results at "
                        "git revision REV with the working tree's; exit 1 if any differs")
    args = parser.parse_args()
    if args.against:
        sys.exit(against(args.against))
    count, hexdigest = digest(r[0] for r in records())
    print(f"results {count}")
    print(f"sha256 {hexdigest}")


if __name__ == "__main__":
    main()

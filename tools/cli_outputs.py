"""Record the CLI's output on every argv list of the bench ``cli`` workload.

    python tools/cli_outputs.py OUT_DIR [--seeds 1 2 3 4] [--rounds 8] [--src PATH]

Each argv list that ``gen_cli`` in bench/workloads.py draws for a seed runs
through ``landau_td.cli.main`` in this process.  The package is imported
from PATH (default: the ``src`` directory of this checkout), so the script
can record another checkout's output too.  Profile documents are written by
``write_profiles`` into a temporary directory, which is the working
directory during the runs, so every argv names them by the same relative
path.  One file per op, OUT_DIR/seed<S>/op<NNN>.txt, holds the argv, the
exit code, stderr and stdout.

Two checkouts print the same output on these ops when
``diff -r OUT_A OUT_B`` reports nothing.  bench/ is only read.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4])
    ap.add_argument("--rounds", type=int, default=8)
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = ap.parse_args(argv)

    out_dir = os.path.abspath(args.out_dir)
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "bench")]
    import workloads
    from landau_td import cli

    start = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for seed in args.seeds:
                ops = workloads.gen_cli(seed, args.rounds)
                paths = workloads.write_profiles(ops, f"seed{seed}")
                os.makedirs(os.path.join(out_dir, f"seed{seed}"), exist_ok=True)
                for i, (op, path) in enumerate(zip(ops, paths)):
                    op_argv = workloads.cli_argv(op, path)
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(list(op_argv))
                    record = os.path.join(out_dir, f"seed{seed}", f"op{i:03d}.txt")
                    with open(record, "w", encoding="utf-8") as fh:
                        fh.write(f"argv: {op_argv!r}\nexit: {code}\n")
                        fh.write(f"--- stderr\n{err.getvalue()}--- stdout\n{out.getvalue()}")
        finally:
            os.chdir(start)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

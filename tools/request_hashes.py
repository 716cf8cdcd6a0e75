"""Hash the output of every benchmark request, to show that a change keeps it.

Runs each request of seeds 1-10 of the four workloads of
``bench/workloads.py`` in process through ``pslet2d.cli.main``, with every
warning shown on stderr, and prints the request count and one sha256 over
each request's argv, exit code, stdout and stderr.  Run it at two commits
and compare the lines:

    python tools/request_hashes.py

``bench/`` is only read: no bytecode is written there.
"""

import contextlib
import hashlib
import io
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(1, 11)


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from pslet2d.cli import main as cli_main

    digest, count = hashlib.sha256(), 0
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for request in workloads.generate(workload, seed):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                        warnings.catch_warnings():
                    warnings.simplefilter("always")
                    code = cli_main(list(request.argv))
                digest.update(repr((request.argv, code, out.getvalue(),
                                    err.getvalue())).encode())
                count += 1
    print(f"{count} requests, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

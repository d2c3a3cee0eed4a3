"""Traced stand-in for ``python -m fanocount``.

    python perfbench/launch.py <spans-file> <job-name> <fanocount argv...>

Installs the tracer's wrappers, then calls ``fanocount.cli.main(argv)`` and
exits with its code, exactly as ``python -m fanocount`` would; the spans are
written to the spans file on the way out.  The untraced runs use plain
``python -m fanocount``.
"""

import sys

import fanocount.cli

import spans


def main(argv: list[str]) -> int:
    spans_file, job, cli_argv = argv[0], argv[1], argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    tracer.job = job
    try:
        return fanocount.cli.main(cli_argv)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

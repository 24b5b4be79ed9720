"""Run one ncaudit CLI command with the benchmark's tracer installed.

    python3 perfbench/cli_launcher.py SPANS_FILE RUN_ID CLI_ARGS...

Exits with the command's own exit code after writing its spans to
SPANS_FILE as JSON lines.  `audit` commands also record the field
multiplications per audit round.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> int:
    spans_path, run_id, *argv = sys.argv[1:]
    tracer = tracing.Tracer(run_id)
    tracer.install(tracing.TARGETS + tracing.CLI_TARGETS)
    from ncaudit import cli, field

    cmd_audit = cli.cmd_audit

    def counted_audit(args):
        with tracer.span("cli.cmd_audit") as span, field.counter:
            code = cmd_audit(args)
            span.counts = {"mults": field.counter.value // max(args.rounds, 1)}
        return code

    cli.cmd_audit = counted_audit
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())

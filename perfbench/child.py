"""Run one spanbandit CLI command under the benchmark's tracer.

    python3 perfbench/child.py REPORT.json TRACE COMMAND [ARGS...]

Run from the root of a checkout; `src/` there is imported. With TRACE=0
only the probe boundaries are timed (planning latency); with TRACE=1
every traced function is, and the spans are written next to REPORT as
REPORT.spans.jsonl in the package's span JSONL format. The command's exit
code is this process's exit code.
"""
import json
import os
import sys


def main(argv: list[str]) -> int:
    report_path, trace, *command = argv
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import spanbandit.cli  # noqa: F401  (loads every module the tracer rebinds)
    from tracer import PROBE, TRACED, Tracer, to_records, write_jsonl

    tracer = Tracer(TRACED if trace == "1" else PROBE)
    with tracer, tracer.segment("pass"):
        rc = sys.modules["spanbandit.cli"].main(command)
    report = {
        "rc": rc,
        "plan_ms": tracer.durations_ms("abs_sampler.build_policy"),
        "absent": tracer.absent,
        "counters": tracer.counters.as_dict(),
    }
    if trace == "1":
        records = to_records(tracer.spans, tracer.segments, tracer.origin)
        write_jsonl(records, report_path + ".spans.jsonl")
    with open(report_path, "w") as f:
        json.dump(report, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

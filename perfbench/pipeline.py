"""One crossbt pipeline in a fresh interpreter, timed stage by stage.

Run by ``run.py`` as a child process::

    python3 perfbench/pipeline.py --config C --out DIR --t0 T --result R.json
        [--jobs N] [--stages gen-data,buckets,run,analyze,report]
        [--spans S.json]

``--t0`` is the parent's clock reading just before it started this process,
so set-up and total time include interpreter start. Each stage is one call
to ``crossbt.cli.main``. Untraced, a fixed calibration task runs before the
first stage and after each stage, outside the stage timings, so the parent
can scale them to one machine speed. With ``--spans`` the run is traced (see
``tracing.py``), runs no calibration, and the spans are written to that file
at the end.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

from tracing import ROOT, Tracer, install, now

REPO = Path(__file__).resolve().parent.parent
STAGES = ("gen-data", "buckets", "run", "analyze", "report")


def import_crossbt():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = REPO / "src"
    if not (src / "crossbt" / "__init__.py").is_file():
        raise SystemExit(f"no crossbt sources under {src}")
    sys.path.insert(0, str(src))
    import crossbt

    if Path(crossbt.__file__).resolve().parent != (src / "crossbt").resolve():
        raise SystemExit(f"imported crossbt from {crossbt.__file__}, not {src}")
    from crossbt import cli
    from crossbt.harness import RunConfig

    return cli, RunConfig


def calibrate() -> float:
    """Clock seconds a fixed mix of interpreter and numpy work takes now.

    The shared host's CPU speed drifts by up to 1.7x within a minute, and
    steal time does not explain it, so process CPU time drifts alike."""
    import numpy as np

    start = now()
    x = 0
    for i in range(300_000):
        x += i * i
    a = np.arange(200_000, dtype=np.float64)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    return now() - start


def run_stages(cli, config: str, out: str, jobs: int, stages, calibration: list | None = None) -> list[dict]:
    """Call ``cli.main`` once per stage; returns each stage's exit code and clock span.

    With a ``calibration`` list, appends one calibration time before the
    first stage and one after each stage."""
    timings = []
    if calibration is not None:
        calibration.append(calibrate())
    for stage in stages:
        start = now()
        code = cli.main([stage, "--config", config, "--out", out, "--jobs", str(jobs)])
        timings.append({"stage": stage, "code": code, "start": start, "end": now()})
        if calibration is not None:
            calibration.append(calibrate())
    return timings


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--stages", default=",".join(STAGES))
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    cli, RunConfig = import_crossbt()
    RunConfig.from_json_file(args.config)
    result: dict = {"setup_end": now(), "calibration_s": []}
    tracer = restore = None
    if args.spans:
        tracer = Tracer(Path(args.out).name)
        root = tracer.open(ROOT, start=args.t0)
        restore = install(tracer)
    try:
        result["stages"] = run_stages(cli, args.config, args.out, args.jobs, args.stages.split(","),
                                      None if args.spans else result["calibration_s"])
    finally:
        if restore is not None:
            restore()
    result["end"] = result["stages"][-1]["end"]
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.close(root, end=result["end"])
        tracer.dump(args.spans)
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())

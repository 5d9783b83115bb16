"""Run one ``shallowwell`` CLI job in this process and stamp its phases.

Usage: job.py STAMP {run,probe,trace} CLI-ARGS...

The stamp file receives, as JSON, the CLOCK_MONOTONIC times at which the
config was validated and the job finished, the exit code, the job's peak
resident set and, in trace mode, the recorded spans with the measured
cost of one span. ``probe`` stops right after the config is
validated, to sample set-up time alone.
"""
import json
import resource
import sys
import time


class _SetupDone(BaseException):
    """Ends a probe once its config is validated; not caught by the CLI."""


def main(argv) -> int:
    stamp_path, mode, cli_args = argv[0], argv[1], argv[2:]
    from shallowwell import cli

    recorder = None
    if mode == "trace":
        import spans

        recorder = spans.Recorder()
        recorder.install()
    stamp = {"validated": None}
    load_config = cli.load_config

    def stamped_load_config(path):
        cfg = load_config(path)
        stamp["validated"] = time.monotonic()
        if mode == "probe":
            raise _SetupDone
        return cfg

    cli.load_config = stamped_load_config
    try:
        rc = cli.main(cli_args)
    except _SetupDone:
        rc = 0
    stamp["done"] = time.monotonic()
    stamp["rc"] = rc
    if recorder is not None:
        stamp["spans"] = recorder.spans
        stamp["span_cost"] = spans.span_cost()
    # peak resident set of this job, in KiB
    stamp["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(stamp_path, "w", encoding="utf-8") as fh:
        json.dump(stamp, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

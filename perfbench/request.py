"""Run one qortho command as ``python -m qortho.cli ARGS`` would.

Usage: ``request.py TRACE_FILE|- ARGS...``

The process imports ``qortho.cli``, writes ``perfbench-ready <clock>`` to
stderr (``time.perf_counter`` is the system-wide monotonic clock, so the
parent compares it with its own launch time), and then runs the command
through ``qortho.cli.main`` and exits with its code, as ``entry`` does.
When the command returns it writes ``perfbench-peak-kib <VmHWM>``, the
peak resident set of this process's own address space.  The parent's
``ru_maxrss`` would not do: a child started with vfork is charged the
parent's high-water mark when it execs.  Given a trace file, it wraps
qortho's layers after the ready mark and writes the spans there when the
command returns.
"""

import os
import sys
import time


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    import qortho.cli

    ready = time.perf_counter()
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(qortho.cli.__file__).startswith(src + os.sep):
        print(f"perfbench: qortho was imported from {qortho.cli.__file__}", file=sys.stderr)
        return 3
    print(f"perfbench-ready {ready!r}", file=sys.stderr, flush=True)
    rec = None
    if trace_path != "-":
        import tracer

        rec = tracer.install()
    try:
        return qortho.cli.main(argv)
    finally:
        print(f"perfbench-peak-kib {peak_kib()}", file=sys.stderr, flush=True)
        if rec is not None:
            rec.dump(trace_path, os.path.basename(trace_path))


def peak_kib() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main())

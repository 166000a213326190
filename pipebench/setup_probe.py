"""Time-to-first-op probe, run in a fresh interpreter by ``run.py``.

Imports the CLI (which pulls in sympy) and runs one untimed warm-up op.
Exits 0 when the op ends with the expected exit code.  The host-speed pass
(``hostspeed.loop_s``) runs once before the import and once after the op;
the last stdout line is their total time in seconds, which ``run.py`` takes
out of the probe's wall time and scales it by.

    python3 pipebench/setup_probe.py EXPECTED_EXIT CLI_ARG...
"""
import contextlib
import io
import sys
from pathlib import Path

import hostspeed

loops_s = hostspeed.loop_s()

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from toricurve import cli  # noqa: E402

if __name__ == "__main__":
    expected = int(sys.argv[1])
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[2:])
    loops_s += hostspeed.loop_s()
    print(loops_s)
    sys.exit(0 if code == expected else 1)

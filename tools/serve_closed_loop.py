"""Drive `repro serve` over its stdin pipe, one request at a time.

CI's other serve smokes feed ``--input FILE``; this one is a client:
it starts ``python -m repro serve <serve args>`` with pipes, writes
the lines of REQUESTS one by one -- each after the previous reply has
been read -- closes stdin, and requires exit status 0 and exactly one
reply per request.  The replies land in OUT for
``compare_serve_outputs.py`` to hold against the ``--input`` run of
the same lines.

Usage: serve_closed_loop.py REQUESTS OUT -- <repro serve arguments>
Needs ``PYTHONPATH=src`` like every other ``python -m repro`` call.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TIMEOUT = 60.0


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] != "--":
        raise SystemExit(__doc__)
    lines = [l for l in Path(argv[0]).read_text().splitlines() if l.strip()]
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *argv[3:]],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    replies = []
    try:
        for line in lines:
            server.stdin.write(line + "\n")
            server.stdin.flush()
            reply = server.stdout.readline()
            if not reply:
                raise SystemExit(f"server closed its stdout before answering: {line}")
            replies.append(reply)
        server.stdin.close()
        extra = server.stdout.read()
        status = server.wait(TIMEOUT)
    finally:
        server.kill()
    if status != 0:
        raise SystemExit(f"repro serve exited with status {status}")
    if extra:
        raise SystemExit(f"more than one reply per request: {extra!r}")
    Path(argv[1]).write_text("".join(replies))
    print(f"closed loop ok: {len(replies)} requests, {len(replies)} replies, exit 0")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

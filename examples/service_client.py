#!/usr/bin/env python3
"""Talk to the sweep service: submit a job, stream progress, diff vs CLI.

Start a server in one terminal::

    PYTHONPATH=src python -m repro.cli serve --port 8765

then run this script (or pass ``--embedded`` to spin up a private
in-process service instead — handy for a quick look without a second
terminal)::

    PYTHONPATH=src python examples/service_client.py [--embedded]

The script submits a small design-space sweep and follows its NDJSON
event stream: a ``snapshot`` of the job, then ``started``, one ``run``
line per completed run (cache hits flagged) as each one finishes, then
``done`` or ``failed``.  It fetches the finished report and submits the
identical request a second time to show idempotent coalescing: same job
id, served warm.
"""

import argparse
import json
import shutil

from repro.service.client import ServiceClient

REQUEST = {
    "kind": "sweep",
    "benchmarks": ["gcc", "swim"],
    "sizes": [16],
    "ways": [4],
    "policies": ["seldm_waypred"],
    "instructions": 10_000,
}


def show(event):
    kind = event["event"]
    if kind == "run":
        hit = " (cache hit)" if event["cache_hit"] else ""
        print(f"  run {event['sweep_done']}/{event['sweep_total']}: "
              f"{event['benchmark']} [{event['config']}] "
              f"{event['seconds'] * 1000:.0f} ms{hit}")
    elif kind == "snapshot":
        print(f"  job {event['job']['id']} is {event['job']['state']}")
    else:
        print(f"  {kind}: {json.dumps(event, sort_keys=True)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765)
    parser.add_argument("--embedded", action="store_true",
                        help="run a private in-process service instead of "
                             "connecting to one")
    args = parser.parse_args()

    root = None
    if args.embedded:
        import tempfile
        from pathlib import Path

        from repro.service.app import ServiceConfig, ServiceThread

        root = Path(tempfile.mkdtemp(prefix="repro-service-"))
        handle = ServiceThread(ServiceConfig(
            port=0, db_path=root / "jobs.sqlite", reports_dir=root / "reports",
        )).start()
        client = ServiceClient(port=handle.port)
        print(f"embedded service on port {handle.port} (state in {root})")
    else:
        handle = None
        client = ServiceClient(host=args.host, port=args.port)
        if not client.healthy():
            raise SystemExit(
                f"no service at {args.host}:{args.port} — start one with "
                f"'python -m repro.cli serve' or pass --embedded"
            )

    try:
        print("submitting sweep job...")
        text = client.submit_and_wait(REQUEST, on_event=show, timeout=600)
        document = json.loads(text)
        print(f"\nreport: {len(document['points'])} design point(s), "
              f"benchmarks {document['benchmarks']}")
        for point in document["points"]:
            print(f"  {point['label']}: mean E-D "
                  f"{point['relative_energy_delay']:.3f}")

        again = client.submit(REQUEST)
        print(f"\nresubmitted: coalesced={again['coalesced']}, "
              f"job {again['job']['id']} already {again['job']['state']} "
              f"({again['job']['cache_hits']} of "
              f"{again['job']['runs_done']} runs were cache hits)")
    finally:
        if handle is not None:
            handle.stop()
        if root is not None:
            # The embedded service is throwaway: drop its journal and
            # report store once it has stopped.
            shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()

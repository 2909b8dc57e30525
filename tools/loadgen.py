#!/usr/bin/env python
"""Load generator for a running ``sradgen --serve``: dedup and agreement check.

Four clients each submit the ``smoke`` campaign twice, concurrently, to one
server.  Every request after the first overlaps the others completely, so
with cross-request dedup working the server evaluates each unique job at
most once however the clients race.  The check passes when the server's
``scheduler.evaluations`` counter grew by no more than the number of unique
jobs and every client's streamed records equal a serial in-process
``CampaignRunner.run`` (``duration_s`` zeroed on both sides: wall clock is
the one field that differs run to run).

Usage::

    PYTHONPATH=src python tools/loadgen.py 127.0.0.1:7341

    # Survive injected connection faults (reconnect and resume); the
    # chaos-smoke CI job arms the same plan on the server too:
    SRADGEN_FAULTS=examples/chaos_smoke_faults.json \\
        PYTHONPATH=src python tools/loadgen.py 127.0.0.1:7343 --retry-max 3

Prints ``service load check ok: ...`` and exits 0, or prints
``service load check FAILED: ...`` on stderr and exits 1.
"""

from __future__ import annotations

import argparse
import asyncio
import math
import sys
import threading
from typing import Dict, List, Optional

from repro.cli import _parse_address
from repro.engine import CampaignRunner, CampaignResult, ResultCache, build_campaign
from repro.resilience.retry import RetryPolicy
from repro.service.client import ServiceClient, run_campaign_remote

CLIENTS = 4
CAMPAIGNS_PER_CLIENT = 2
RETRY_BACKOFF_S = 0.05


def _server_counters(host: str, port: int) -> Dict[str, int]:
    """The server's counter registry via the ``metrics`` op."""

    async def fetch() -> Dict[str, int]:
        async with ServiceClient(host, port) as client:
            return await client.metrics()

    return asyncio.run(fetch())


def _normalized_records(result: CampaignResult) -> List[Dict[str, object]]:
    """Cached-form dicts with wall clock zeroed and NaN made comparable."""
    rows = []
    for record in result.records:
        data = record.to_dict()
        data["duration_s"] = 0.0
        rows.append({
            key: None if isinstance(value, float) and math.isnan(value) else value
            for key, value in data.items()
        })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "address", metavar="HOST:PORT", type=_parse_address,
        help="address of the running sradgen --serve",
    )
    parser.add_argument(
        "--retry-max", type=int, default=0, metavar="N",
        help="give every client an N-retry policy (reconnect and resume; "
             "default: no retries)",
    )
    args = parser.parse_args(argv)
    host, port = args.address
    retry_policy = None
    if args.retry_max > 0:
        retry_policy = RetryPolicy(
            max_retries=args.retry_max, base_backoff_s=RETRY_BACKOFF_S
        )

    campaign = build_campaign("smoke")
    unique_jobs = len({job.key for job in campaign.jobs})
    before = _server_counters(host, port)
    results: List[Optional[CampaignResult]] = [None] * CLIENTS
    problems: List[str] = []

    def client(index: int) -> None:
        try:
            for _ in range(CAMPAIGNS_PER_CLIENT):
                results[index] = run_campaign_remote(
                    host, port, campaign, retry_policy=retry_policy
                )
        except Exception as error:  # noqa: BLE001 - reported as a failed check
            problems.append(f"client {index}: {type(error).__name__}: {error}")

    threads = [
        threading.Thread(target=client, args=(index,), daemon=True)
        for index in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    if not problems:
        after = _server_counters(host, port)
        delta = {key: after[key] - before.get(key, 0) for key in after}
        evaluations = delta.get("scheduler.evaluations", 0)
        if evaluations > unique_jobs:
            problems.append(
                f"{evaluations - unique_jobs} duplicate evaluation(s) "
                f"({evaluations} evaluations for {unique_jobs} unique jobs)"
            )
        serial = _normalized_records(
            CampaignRunner(ResultCache(None), workers=0).run(campaign)
        )
        if any(_normalized_records(result) != serial for result in results):
            problems.append("streamed records diverged from the serial run")
    if problems:
        print("service load check FAILED: " + "; ".join(problems), file=sys.stderr)
        return 1
    print(
        f"service load check ok: {evaluations} evaluations, "
        f"{delta.get('scheduler.dedup_hits', 0)} dedup hit(s), "
        f"{delta.get('cache.hits', 0)} cache hit(s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``python -m repro.service`` - run the coalescing simulation service.

Examples::

    python -m repro.service --port 8752 --cache-dir .repro-cache
    python -m repro.service --window-ms 50 --workers 4 \\
        --cache-max-bytes 2000000000

Work dispatches as soon as a worker thread is free; what arrives while
every worker is busy waits and leaves as one batch.  ``--window-ms 50``
(second example) also holds each batch up to 50 ms for strangers while
a worker is idle: fuller batches, slower replies.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Optional, Sequence

from repro.experiments.parallel import ResultCache
from repro.service.adapters import SUPPORTED_EXPERIMENTS
from repro.service.engine import CoalescingEngine
from repro.service.server import ServiceServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Coalescing simulation job service (JSON over HTTP). "
        f"Experiments: {', '.join(SUPPORTED_EXPERIMENTS)}.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default %(default)s)")
    parser.add_argument("--port", type=int, default=8752,
                        help="listen port, 0 for ephemeral "
                        "(default %(default)s)")
    parser.add_argument("--window-ms", type=float, default=0.0,
                        help="hold for strangers while a worker is idle: "
                        "how long the first pending item waits before it "
                        "dispatches; items queued behind busy workers "
                        "never wait it (default %(default)s: dispatch "
                        "at once)")
    parser.add_argument("--workers", type=int, default=None,
                        help="dispatch threads (default: auto)")
    parser.add_argument("--cache-dir", default=None,
                        help="shared result cache root (default: "
                        "REPRO_CACHE_DIR; unset = no persistence)")
    parser.add_argument("--cache-max-bytes", type=int, default=None,
                        help="LRU byte budget for the cache (default: "
                        "REPRO_CACHE_MAX_BYTES; 0 = unlimited)")
    return parser


async def _serve(args: argparse.Namespace) -> None:
    cache: Optional[ResultCache] = None
    if args.cache_dir:
        cache = ResultCache(args.cache_dir, max_bytes=args.cache_max_bytes)
    else:
        cache = ResultCache.from_env()
        if cache is not None and args.cache_max_bytes is not None:
            cache.max_bytes = args.cache_max_bytes
    engine = CoalescingEngine(cache=cache, window_ms=args.window_ms,
                              workers=args.workers)
    server = ServiceServer(engine, host=args.host, port=args.port)
    await server.start()
    cache_note = f"cache {cache.root}" if cache is not None else "no cache"
    print(f"repro.service listening on http://{server.host}:{server.port} "
          f"({cache_note}, window {engine.window_ms}ms, "
          f"{engine.workers} workers)", flush=True)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:
        print("repro.service: shutting down", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""A small blocking client for the tuning service.

For scripts, load tests, and CI: plain :mod:`http.client`, JSON in and
out, no dependencies.  Every method returns ``(status, payload)`` so
callers can assert on backpressure statuses (429/503) as easily as on
success.

Also usable as a module CLI::

    python -m repro.service.client --port 8077 healthz
    python -m repro.service.client --port 8077 tune request.json
    python -m repro.service.client --port 8077 job <key>
    python -m repro.service.client --port 8077 metrics
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys

from repro.errors import ReproError

__all__ = ["TuningClient", "ServiceClientError", "main"]


class ServiceClientError(ReproError):
    """The service could not be reached or answered with an error."""


class TuningClient:
    """Blocking JSON client bound to one server address."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8077,
                 timeout: float = 120.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def _request(self, method: str, path: str,
                 body: dict | None = None) -> tuple[int, dict | str]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body)
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            ctype = response.getheader("Content-Type", "")
            if ctype.startswith("text/plain"):
                # e.g. the Prometheus exposition from /metrics?format=...
                return response.status, raw.decode("utf-8")
            try:
                decoded = json.loads(raw) if raw else {}
            except ValueError:
                decoded = {"error": f"non-JSON response: {raw[:200]!r}"}
            return response.status, decoded
        except OSError as exc:
            raise ServiceClientError(
                f"cannot reach tuning service at "
                f"{self.host}:{self.port}: {exc}"
            ) from None
        finally:
            conn.close()

    # -- endpoints -----------------------------------------------------------

    def tune(self, request: dict, wait: bool = True) -> tuple[int, dict]:
        """POST one tuning request; 202 + job id when ``wait`` is False."""
        suffix = "" if wait else "?wait=0"
        return self._request("POST", f"/v1/tune{suffix}", body=request)

    def job(self, key: str) -> tuple[int, dict]:
        return self._request("GET", f"/v1/jobs/{key}")

    def metrics(self, fmt: str = "json") -> dict | str:
        """The metrics snapshot: a dict, or the Prometheus text when
        ``fmt="prometheus"``."""
        suffix = "" if fmt == "json" else f"?format={fmt}"
        status, payload = self._request("GET", f"/metrics{suffix}")
        if status != 200:
            raise ServiceClientError(f"/metrics answered HTTP {status}")
        return payload

    def healthz(self) -> tuple[int, dict]:
        return self._request("GET", "/healthz")


def main(argv: list[str] | None = None) -> int:
    """Module CLI; prints the JSON response, exit code 0 on HTTP success."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.client",
        description="Talk to a running repro tuning service.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8077)
    parser.add_argument("--timeout", type=float, default=120.0)
    sub = parser.add_subparsers(dest="verb", required=True)
    tune = sub.add_parser("tune", help="POST a tuning request")
    tune.add_argument("request", help="path to a JSON request file, or '-'")
    tune.add_argument("--no-wait", action="store_true",
                      help="return the job id immediately (202)")
    job = sub.add_parser("job", help="poll one job by key")
    job.add_argument("key")
    metrics = sub.add_parser("metrics", help="dump the metrics snapshot")
    metrics.add_argument("--format", choices=["json", "prometheus"],
                         default="json", dest="fmt",
                         help="snapshot encoding (default json)")
    sub.add_parser("healthz", help="liveness check")
    args = parser.parse_args(argv)

    client = TuningClient(host=args.host, port=args.port, timeout=args.timeout)
    try:
        if args.verb == "tune":
            raw = (sys.stdin.read() if args.request == "-"
                   else open(args.request).read())
            status, payload = client.tune(json.loads(raw),
                                          wait=not args.no_wait)
        elif args.verb == "job":
            status, payload = client.job(args.key)
        elif args.verb == "metrics":
            status, payload = 200, client.metrics(fmt=args.fmt)
        else:
            status, payload = client.healthz()
    except (ServiceClientError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(payload, str):
        print(payload, end="")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if status in (200, 202) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

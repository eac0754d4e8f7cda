"""A small typed client for the gateway wire protocol.

Anything that speaks HTTP can talk to the gateway; this client exists
so in-repo callers (tests, the load generator, the example) don't each
re-implement the codec and status mapping.  One request = one fresh
``http.client.HTTPConnection``, so a client instance is safe to share
across threads — the load generator hammers one from dozens.
"""

from __future__ import annotations

import http.client
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from . import wire

__all__ = ["GatewayClient", "GatewayResult"]


@dataclass(frozen=True)
class GatewayResult:
    """One ``/infer`` round-trip, whatever its outcome.

    ``ok`` requests carry the decoded ``output`` array; refusals and
    failures carry the wire ``status`` / ``reason`` and the HTTP code,
    so callers branch on data instead of catching exceptions — the
    serving layer's typed-result convention, over the network.
    """

    http_status: int
    status: str
    output: Optional[np.ndarray] = None
    reason: str = ""
    retryable: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def unwrap(self) -> np.ndarray:
        """The output array; raises on anything but success."""
        if not self.ok:
            raise RuntimeError(
                f"gateway request failed: HTTP {self.http_status} "
                f"{self.status}: {self.reason}")
        return self.output


class GatewayClient:
    """Talk to a :class:`repro.gateway.Gateway` at ``(host, port)``.

    ``client_id`` rides on every request as ``X-Client-Id`` — the
    identity the gateway's per-client token buckets meter.
    """

    def __init__(self, address: Union[str, Tuple[str, int]],
                 client_id: str = "default",
                 timeout_s: float = 120.0) -> None:
        if isinstance(address, str):
            address = address.split("//")[-1].rstrip("/")
            host, _, port = address.partition(":")
            self.host, self.port = host, int(port)
        else:
            self.host, self.port = address[0], int(address[1])
        self.client_id = client_id
        self.timeout_s = timeout_s

    def _request(self, method: str, path: str,
                 body: Optional[bytes] = None) -> Tuple[int, Any]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s)
        try:
            headers = {"X-Client-Id": self.client_id}
            if body is not None:
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, wire.loads(response.read())
        finally:
            conn.close()

    def infer(self, image: np.ndarray, model: str) -> GatewayResult:
        """Run one ``(H, W, C)`` image; returns a :class:`GatewayResult`
        (network errors still raise — there is no response to type)."""
        request = {
            "model": model, "image": wire.encode_array(np.asarray(image))}
        status, body = self._request("POST", "/infer", wire.dumps(request))
        if status == 200 and body.get("status") == "ok":
            return GatewayResult(http_status=status, status="ok",
                                 output=wire.decode_array(body["output"]))
        return GatewayResult(
            http_status=status, status=str(body.get("status", "error")),
            reason=str(body.get("reason", "")),
            retryable=bool(body.get("retryable", False)))

    def health(self) -> Dict:
        return self._request("GET", "/healthz")[1]

    def models(self) -> Tuple[str, ...]:
        return tuple(self._request("GET", "/models")[1]["models"])

    def stats(self) -> Dict:
        return self._request("GET", "/stats")[1]

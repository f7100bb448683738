"""S3-compatible object-store adapter layered on the HTTP range store.

Speaks the subset of the S3 REST protocol Airphant needs against any
S3-compatible endpoint (AWS S3, MinIO, Ceph RGW, GCS's XML interop API, or
the in-test emulator) using *path-style* addressing:

* ``GET    {endpoint}/{bucket}/{key}``      — whole-object and ``Range`` reads;
* ``HEAD   {endpoint}/{bucket}/{key}``      — existence + ``Content-Length``;
* ``PUT    {endpoint}/{bucket}/{key}``      — uploads during builds;
* ``DELETE {endpoint}/{bucket}/{key}``      — stale-layout cleanup;
* ``GET    {endpoint}/{bucket}?list-type=2`` — paginated ListObjectsV2, which
  gives this backend the real :meth:`list_blobs` that plain HTTP lacks.

Requests are unsigned by default (public buckets, emulators with auth
disabled) or signed with **AWS Signature Version 4** when credentials are
available — from an explicit :class:`S3Credentials` or the conventional
``AWS_ACCESS_KEY_ID`` / ``AWS_SECRET_ACCESS_KEY`` / ``AWS_SESSION_TOKEN``
environment variables.  Everything is stdlib (``hmac``/``hashlib``/
``http.client``, through the pooled keep-alive connections the HTTP store
owns); no SDK is required.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from urllib.parse import parse_qsl, quote, urlencode, urlsplit

from repro.observability import MetricsRegistry
from repro.storage.base import TransientStoreError
from repro.storage.httpstore import HTTPRangeStore

#: Hash of the empty payload, used for bodyless requests (GET/HEAD/DELETE).
_EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()


@dataclass(frozen=True)
class S3Credentials:
    """A static AWS-style credential triple used for SigV4 signing.

    Parameters
    ----------
    access_key / secret_key:
        The key pair identifying the caller.
    session_token:
        Optional STS token, sent (and signed) as ``x-amz-security-token``.
    """

    access_key: str
    secret_key: str
    session_token: str | None = None

    @classmethod
    def from_env(cls) -> "S3Credentials | None":
        """Build credentials from the conventional ``AWS_*`` environment.

        Returns
        -------
        An :class:`S3Credentials` when both ``AWS_ACCESS_KEY_ID`` and
        ``AWS_SECRET_ACCESS_KEY`` are set (plus ``AWS_SESSION_TOKEN`` when
        present), else ``None`` — meaning requests go out unsigned.
        """
        access_key = os.environ.get("AWS_ACCESS_KEY_ID", "")
        secret_key = os.environ.get("AWS_SECRET_ACCESS_KEY", "")
        if not access_key or not secret_key:
            return None
        return cls(
            access_key=access_key,
            secret_key=secret_key,
            session_token=os.environ.get("AWS_SESSION_TOKEN") or None,
        )


def _hmac_sha256(key: bytes, message: str) -> bytes:
    return hmac.new(key, message.encode("utf-8"), hashlib.sha256).digest()


@lru_cache(maxsize=16)
def _signing_key(secret_key: str, datestamp: str, region: str) -> bytes:
    """The SigV4 key of one day and region: four HMACs, derived once per
    day rather than once per request."""
    key = _hmac_sha256(f"AWS4{secret_key}".encode("utf-8"), datestamp)
    key = _hmac_sha256(key, region)
    key = _hmac_sha256(key, "s3")
    return _hmac_sha256(key, "aws4_request")


def sign_v4(
    method: str,
    url: str,
    region: str,
    credentials: S3Credentials,
    payload_hash: str,
    now: datetime | None = None,
) -> dict[str, str]:
    """Compute AWS Signature Version 4 headers for one S3 request.

    Parameters
    ----------
    method / url:
        The request line being signed; the URL's query string participates
        in the canonical request, so listing parameters are covered.
    region:
        Signing region (``us-east-1`` for most S3-compatible emulators).
    credentials:
        The key pair (and optional session token) to sign with.
    payload_hash:
        Hex SHA-256 of the request body (the empty-body hash for GET/HEAD).
    now:
        Signing time; defaults to the current UTC time.

    Returns
    -------
    The headers to attach: ``x-amz-date``, ``x-amz-content-sha256``,
    ``Authorization``, and ``x-amz-security-token`` when a session token is
    in play.
    """
    parts = urlsplit(url)
    stamp = (now or datetime.now(timezone.utc)).strftime("%Y%m%dT%H%M%SZ")
    datestamp = stamp[:8]

    headers = {
        "host": parts.netloc,
        "x-amz-content-sha256": payload_hash,
        "x-amz-date": stamp,
    }
    if credentials.session_token:
        headers["x-amz-security-token"] = credentials.session_token
    signed_header_names = ";".join(sorted(headers))

    canonical_query = urlencode(
        sorted(parse_qsl(parts.query, keep_blank_values=True)), quote_via=quote
    )
    canonical_request = "\n".join(
        [
            method,
            # The path is already percent-encoded exactly as sent on the
            # wire (blob_url quotes it once); for S3, the canonical URI is
            # that single-encoded path verbatim — re-quoting here would
            # double-encode (%20 -> %2520) and break the signature for any
            # key containing quotable characters.
            parts.path or "/",
            canonical_query,
            "".join(f"{name}:{headers[name]}\n" for name in sorted(headers)),
            signed_header_names,
            payload_hash,
        ]
    )
    scope = f"{datestamp}/{region}/s3/aws4_request"
    string_to_sign = "\n".join(
        [
            "AWS4-HMAC-SHA256",
            stamp,
            scope,
            hashlib.sha256(canonical_request.encode("utf-8")).hexdigest(),
        ]
    )
    key = _signing_key(credentials.secret_key, datestamp, region)
    signature = hmac.new(key, string_to_sign.encode("utf-8"), hashlib.sha256).hexdigest()

    return {
        "x-amz-date": stamp,
        "x-amz-content-sha256": payload_hash,
        **(
            {"x-amz-security-token": credentials.session_token}
            if credentials.session_token
            else {}
        ),
        "Authorization": (
            f"AWS4-HMAC-SHA256 Credential={credentials.access_key}/{scope}, "
            f"SignedHeaders={signed_header_names}, Signature={signature}"
        ),
    }


class S3ObjectStore(HTTPRangeStore):
    """Path-style S3 :class:`~repro.storage.base.ObjectStore` adapter.

    Parameters
    ----------
    bucket:
        Bucket name, addressed path-style as ``{endpoint}/{bucket}/...``.
    prefix:
        Optional key prefix every blob name is nested under (a "directory"
        inside the bucket).
    endpoint:
        Base URL of the S3-compatible service (e.g. ``http://127.0.0.1:9000``
        for MinIO).  Defaults to AWS's regional endpoint.
    region:
        SigV4 signing region.
    credentials:
        Explicit credentials; when ``None`` they are read from the ``AWS_*``
        environment, and requests go out **unsigned** if none are set.
    timeout_s:
        Socket timeout per request, in seconds.
    metrics:
        Registry request counts and latencies are recorded into (labelled
        ``backend="s3"``); defaults to the process-wide registry.
    """

    _METRICS_BACKEND = "s3"

    def __init__(
        self,
        bucket: str,
        prefix: str = "",
        endpoint: str | None = None,
        region: str = "us-east-1",
        credentials: S3Credentials | None = None,
        timeout_s: float = 10.0,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        if not bucket:
            raise ValueError("bucket must be non-empty")
        if endpoint is None:
            endpoint = f"https://s3.{region}.amazonaws.com"
        super().__init__(
            f"{endpoint.rstrip('/')}/{quote(bucket, safe='')}",
            timeout_s=timeout_s,
            metrics=metrics,
        )
        self._endpoint = endpoint.rstrip("/")
        self._bucket = bucket
        self._prefix = prefix.strip("/")
        self._region = region
        self._credentials = credentials if credentials is not None else S3Credentials.from_env()

    @property
    def bucket(self) -> str:
        """The addressed bucket name."""
        return self._bucket

    @property
    def prefix(self) -> str:
        """Key prefix blob names are nested under (may be empty)."""
        return self._prefix

    @property
    def is_signed(self) -> bool:
        """Whether requests carry SigV4 signatures (credentials available)."""
        return self._credentials is not None

    # -- key/URL mapping ---------------------------------------------------------

    def _key(self, name: str) -> str:
        """Map a blob name to its object key under the configured prefix."""
        return f"{self._prefix}/{name}" if self._prefix else name

    def blob_url(self, name: str) -> str:
        """Return the path-style object URL of blob ``name``."""
        if not name or name.startswith("/") or ".." in name.split("/"):
            raise ValueError(f"invalid blob name: {name!r}")
        return f"{self.base_url}/{quote(self._key(name), safe='/')}"

    def _headers(self, method: str, url: str, body: bytes | None) -> dict[str, str]:
        """SigV4-sign the request when credentials are configured."""
        if self._credentials is None:
            return {}
        payload_hash = hashlib.sha256(body or b"").hexdigest() if body else _EMPTY_SHA256
        return sign_v4(method, url, self._region, self._credentials, payload_hash)

    # -- listing (the operation plain HTTP cannot offer) -------------------------

    def total_bytes(self, prefix: str = "") -> int:
        """Summed blob sizes under ``prefix`` via the native listing.

        Overrides the HTTP parent's listing-manifest shortcut — S3 has a
        real LIST, so the generic enumerate-and-size path applies.
        """
        return sum(self.size(name) for name in self.list_blobs(prefix))

    def list_blobs(self, prefix: str = "") -> list[str]:
        """Enumerate blob names under ``prefix`` via paginated ListObjectsV2.

        Returns
        -------
        Sorted blob names with the store-level key prefix stripped, exactly
        like the local and in-memory backends.
        """
        full_prefix = self._key(prefix) if prefix else self._prefix
        strip = f"{self._prefix}/" if self._prefix else ""
        names: list[str] = []
        continuation: str | None = None
        while True:
            query: list[tuple[str, str]] = [("list-type", "2")]
            if full_prefix:
                query.append(("prefix", full_prefix))
            if continuation:
                query.append(("continuation-token", continuation))
            url = f"{self.base_url}?{urlencode(query, quote_via=quote)}"
            _, _, body = self._request("GET", url, name=prefix or "<list>")
            keys, continuation = _parse_list_objects(body)
            for key in keys:
                if strip and not key.startswith(strip):
                    continue  # defensive: server returned keys outside our prefix
                names.append(key[len(strip):])
            if not continuation:
                break
        return sorted(names)


def _parse_list_objects(body: bytes) -> tuple[list[str], str | None]:
    """Extract object keys + continuation token from a ListObjectsV2 answer.

    Tolerates both namespaced (AWS) and bare (emulator) XML tags.

    Returns
    -------
    ``(keys, next_continuation_token)`` — the token is ``None`` on the last
    page.
    """
    try:
        root = ElementTree.fromstring(body)
    except ElementTree.ParseError as error:
        raise TransientStoreError(f"unparseable ListObjectsV2 response: {error}") from error

    def local(tag: str) -> str:
        return tag.rsplit("}", 1)[-1]

    keys: list[str] = []
    token: str | None = None
    truncated = False
    for element in root.iter():
        name = local(element.tag)
        if name == "Contents":
            for child in element:
                if local(child.tag) == "Key" and child.text:
                    keys.append(child.text)
        elif name == "NextContinuationToken" and element.text:
            token = element.text
        elif name == "IsTruncated":
            truncated = (element.text or "").strip().lower() == "true"
    return keys, (token if truncated else None)

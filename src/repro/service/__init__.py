"""Airphant as a long-lived query service.

The service layer is the public query-side API of the reproduction: typed
request/response objects (:mod:`repro.service.api`), one shared configuration
(:mod:`repro.service.config`), a catalog of lazily-opened indexes
(:mod:`repro.service.catalog`), the :class:`AirphantService` facade that
dispatches every query mode (:mod:`repro.service.facade`), and a stdlib-only
JSON HTTP server (:mod:`repro.service.http`) started with
``airphant serve``.
"""

from repro.service.api import (
    SEARCH_MODES,
    DocumentHit,
    ErrorInfo,
    IndexInfo,
    SearchRequest,
    SearchResponse,
    ServiceError,
    ShardInfo,
)
from repro.service.catalog import IndexCatalog
from repro.service.config import ServiceConfig
from repro.service.facade import AirphantService
from repro.service.http import AirphantHTTPServer, create_server, serve_forever

__all__ = [
    "SEARCH_MODES",
    "AirphantHTTPServer",
    "AirphantService",
    "DocumentHit",
    "ErrorInfo",
    "IndexCatalog",
    "IndexInfo",
    "SearchRequest",
    "SearchResponse",
    "ServiceConfig",
    "ServiceError",
    "ShardInfo",
    "create_server",
    "serve_forever",
]

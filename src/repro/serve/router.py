"""The one opener of a serving source.

:func:`open_service` is the entry point the CLI (``python -m
repro.serve``) and the HTTP tier (:func:`~repro.serve.http.make_app`)
share: every source — a live cube, a snapshot directory or a timeline
directory of dated snapshots — opens as a
:class:`~repro.serve.service.CubeService`.
"""

from __future__ import annotations

from repro.serve.service import CubeService


def open_service(
    source,
    mmap: bool = True,
    date: "int | None" = None,
) -> CubeService:
    """Open whatever serving source a path (or live cube) holds.

    A directory with a top-level ``manifest.json`` is one snapshot; any
    other directory is read as a timeline, and ``date`` picks the served
    date (the latest by default).  A directory that is neither raises
    :class:`~repro.errors.SnapshotError` naming the path.
    """
    return CubeService(source, mmap=mmap, date=date)

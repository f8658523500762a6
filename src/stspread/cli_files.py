"""What a command line run writes besides stdout: its output files and its
run manifest (stspread.cli).

Every file is written atomically, piece by piece, and the manifest digests
the files in order of their paths, or else the run's stdout.  Only a run
that writes a system or a manifest loads this module; the files come as
byte pieces (writer._encoded_pieces), so it never loads the text writer.
"""

from __future__ import annotations

import os
import sys
import time

from . import __version__


def write_outputs(files, manifest_path, argv, args, code, out, start):
    """Write files, {path: byte pieces}, and the manifest when
    manifest_path is given; returns the pieces of stdout, out.

    Each file's pieces go to its temp file, and to the one digest of all of
    them in order of path, as they are made.  The manifest may digest
    stdout instead, so out is then taken as a list, written to the
    manifest's digest and returned.  start is the perf_counter reading
    that the manifest's elapsed time counts from.
    """
    result = _sha256() if manifest_path and files else None
    for path in sorted(files):
        pieces = files[path]
        _write_atomic(path, pieces if result is None else _hashed(pieces, result))
    if manifest_path:
        out = list(out)
        _write_manifest(manifest_path, argv, args, code, out, result,
                        time.perf_counter() - start)
    return out


def _hashed(pieces, digest):
    """pieces, each added to digest as it is taken."""
    for piece in pieces:
        digest.update(piece)
        yield piece


def _write_atomic(path, pieces):
    """Write an iterable of byte pieces to path through a new temp file next
    to it and os.replace, one piece at a time as they are taken.

    A failed write leaves an existing target as it was and removes the temp
    file; its OSError names path, as a direct open(path, "wb") would.
    """
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        fh = open(tmp, "xb")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.remove(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _sha256():
    """A new sha256 hash object from CPython's built-in module: _sha2 from
    3.12, _sha256 before.  import hashlib loads _hashlib, which maps
    OpenSSL's libcrypto, 3.3 MB of resident memory that construct pg2
    --dim 10 would hold beside its pair table; hashlib serves only an
    interpreter built without either module."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256()


def _write_manifest(path, argv, args, code, pieces, result, elapsed):
    """Write the run manifest; result is the sha256 of the files written,
    in order of their paths, or None when the run wrote none, and then the
    digest is that of the run's stdout, the strings of pieces in order."""
    import json
    import stat

    inputs = {}
    system_path = getattr(args, "system", None)
    if system_path:
        # only a regular file is hashed: the load consumed a FIFO's text,
        # and opening it again would wait for a writer that never comes
        digest = None
        try:
            if stat.S_ISREG(os.stat(system_path).st_mode):
                h = _sha256()
                with open(system_path, "rb") as fh:
                    for block in iter(lambda: fh.read(1 << 20), b""):
                        h.update(block)
                digest = h.hexdigest()
        except OSError:
            pass
        inputs[system_path] = digest
    if result is None:
        result = _sha256()
        for piece in pieces:
            result.update(piece.encode())
    manifest = {
        "argv": argv,
        "command": args.command,
        "version": __version__,
        # platform.python_version(), without importing platform
        "python": sys.version.split()[0],
        "seed": getattr(args, "seed", None),
        "jobs": getattr(args, "jobs", 1),
        "inputs": inputs,
        "result_digest": result.hexdigest(),
        "exit_code": code,
        "elapsed_seconds": round(elapsed, 3),
    }
    _write_atomic(path, [(json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()])

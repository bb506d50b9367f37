"""How an artifact reaches disk, and how a text artifact comes back.

Every artifact but a PGM image goes through ``write_atomic``, so a kill leaves
the old file or the new one, and maybe a ``<path>.<pid>.tmp`` that nothing
reads and that the next save of ``path`` removes.  PGMs are written in
place: ``read_pgm`` rejects a raster that is not exactly w*h bytes, so a cut
image never reads as one, and a synced rename per image would cost three
direct writes.  The metrics log appends its steps
in place after its carried prefix; a resume keeps only the steps up to its
checkpoint.
"""

import contextlib
import os

from .errors import DataError


def write_atomic(path, data):
    """Replaces ``path`` by ``data`` (bytes, or a str as ascii) in one step, via
    a synced temp file beside it, which an error also removes.  Then removes
    the temp files of ``path`` that killed writers left behind."""
    if isinstance(data, str):
        data = data.encode("ascii")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    _remove_dead_temps(path)


def _remove_dead_temps(path):
    """Removes each ``<path>.<pid>.tmp`` whose pid no longer runs; a live
    writer's temp file is kept."""
    folder, name = os.path.split(path)
    prefix = name + "."
    for entry in os.listdir(folder or "."):
        pid = entry[len(prefix):-len(".tmp")]
        if entry.startswith(prefix) and entry.endswith(".tmp") and pid.isdigit() \
                and not _running(int(pid)):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(folder, entry))


def _running(pid):
    try:
        os.kill(pid, 0)  # signal 0 only checks that the pid exists
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # another user's process
    return True


def read_text(path, what):
    """The ascii text of ``path``; unreadable or not ascii, a DataError names it."""
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read {what} {path}: {e}") from None

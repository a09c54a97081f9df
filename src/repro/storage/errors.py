"""Exceptions of the persistence layer.

Every failure mode a bundle or delta log can exhibit maps to a dedicated
exception, because the acceptance contract of the offline artifacts is
*fail loudly, never serve a silently wrong engine*: a reader that cannot
prove it is looking at a compatible, uncorrupted artifact must refuse to
produce an engine at all.
"""

from __future__ import annotations


class BundleError(RuntimeError):
    """Base class for index-bundle persistence failures."""


class BundleFormatError(BundleError):
    """The file is not a repro bundle, or its format version is not the
    one this code writes — a newer or older layout must be rebuilt (or
    read by the matching release), never guessed at."""


class BundleChecksumError(BundleError):
    """A section's CRC does not match its header entry: the artifact is
    corrupted (torn write, bit rot, concurrent overwrite) and no structure
    from it can be trusted."""


class BundleExistsError(BundleError):
    """Refusing to overwrite an existing bundle without ``force``."""


class UnsupportedEngineError(BundleError):
    """The engine holds a component the bundle format cannot represent
    faithfully — a cost model whose class is not exactly a stock model's
    (a subclass, or the eval's perturbed wrapper); a round-tripped engine
    would silently behave differently, so saving is refused instead.  The analysis chain needs no such check: there is only one."""


class WalError(RuntimeError):
    """The delta log is unreadable or inconsistent with the bundle it
    extends (corrupt entry checksum, malformed framing, or an epoch gap
    meaning updates were lost between bundle and log)."""

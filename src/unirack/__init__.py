"""Unipotent conjugacy classes of small classical groups as racks.

Builds symplectic and unitary groups over small finite fields, realizes
their unipotent classes as conjugation racks, and classifies each class as
type D, type F, or cthulhu, with verified witnesses for the first two and
exhaustive refutation certificates for the last.
"""

ARTIFACT_VERSION = "0.2.0"
SCHEMA_VERSION = 3

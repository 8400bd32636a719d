"""Decremental SPQR-trees of planar graphs.

Embedded planar multigraphs with rotation systems, face-preserving
separator trees, a dynamic separating-4-cycle detector, SPQR-tree
maintenance of one biconnected block under edge deletions and
contractions, and brute-force oracles to check them against.
"""

from planarconn.embed import (
    EmbeddedMultigraph,
    EmbedError,
    EulerViolation,
    GraphFormatError,
    LabelInUse,
    MalformedRotation,
    NotAnEndpoint,
    NotBiconnected,
    NotOnFace,
    SelfLoopContraction,
    TooFewEdges,
    UnknownEdge,
    UnknownVertex,
    VertexNotIsolated,
    parse_graph_text,
    write_graph_text,
)

__all__ = [
    "EmbeddedMultigraph",
    "EmbedError",
    "EulerViolation",
    "GraphFormatError",
    "LabelInUse",
    "MalformedRotation",
    "NotAnEndpoint",
    "NotBiconnected",
    "NotOnFace",
    "SelfLoopContraction",
    "TooFewEdges",
    "UnknownEdge",
    "UnknownVertex",
    "VertexNotIsolated",
    "parse_graph_text",
    "write_graph_text",
]

__version__ = "0.1.0"

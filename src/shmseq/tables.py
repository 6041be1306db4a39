"""CSV output: one writer for `gen`'s data.csv and every run table.

Rows are formatted in blocks of ``BLOCK_ROWS``, each block with one ``%``
operation on a repeated row format, so that the cost is the printf work
itself rather than one Python call and one write per row. The bytes are
those of numpy's row-at-a-time text writer given the same header, formats
and a comma delimiter.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

BLOCK_ROWS = 4096  # rows per `%` operation: about 0.4 MB of text for a 5-column data.csv


def write_csv(path, header: str, fmts: Sequence[str], table: np.ndarray) -> None:
    """Write ``header``, then each row of the 2-D ``table`` as ``fmts`` joined by commas."""
    row_fmt = ",".join(fmts) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(table), BLOCK_ROWS):
            block = table[lo : lo + BLOCK_ROWS]
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))

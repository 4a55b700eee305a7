"""The consistent view manager (Fig. 1 / Section 2.2).

Translates a transaction's token (its tid) into per-partition visibility
masks.  The aggregate cache asks it for

* the *global* visibility of a main partition when an entry is created,
* the *current transaction's* visibility of main and delta partitions when
  an entry is used, so main compensation can diff the stored and current
  vectors and delta compensation can aggregate exactly the visible delta
  rows.
"""

from __future__ import annotations

import numpy as np

from ..storage.partition import Partition
from .manager import Transaction, TransactionManager


class ConsistentViewManager:
    """Produces visibility vectors for partitions at a given snapshot."""

    def __init__(self, txn_manager: TransactionManager):
        self._txn_manager = txn_manager

    # ------------------------------------------------------------------
    def global_visibility(self, partition: Partition) -> np.ndarray:
        """Visibility vector of ``partition`` for the latest committed state."""
        return partition.visibility(self._txn_manager.global_snapshot())

    def txn_visibility(self, partition: Partition, txn: Transaction) -> np.ndarray:
        """Visibility vector of ``partition`` for transaction ``txn``."""
        return partition.visibility(txn.snapshot)

    def txn_visible_mask(self, partition: Partition, txn: Transaction) -> np.ndarray:
        """Numpy boolean visibility mask for ``txn`` (scan-side fast path)."""
        return partition.visible_mask(txn.snapshot)

    def txn_visible_rows(self, partition: Partition, txn: Transaction) -> np.ndarray:
        """Indices of rows of ``partition`` visible to ``txn``."""
        return partition.visible_rows(txn.snapshot)

    @property
    def txn_manager(self) -> TransactionManager:
        """The underlying transaction manager."""
        return self._txn_manager

"""Dense-adjacency baseline: GNNs on a general-purpose DL framework.

The paper's introduction motivates GNN frameworks by noting that "the GNN
models based on these frameworks can usually achieve better training time
performance than that based on general-purpose deep learning frameworks".
This package is that baseline: message passing implemented the way one
would on a plain tensor framework with no graph support — a materialised
(block-diagonal) dense adjacency matrix and `A @ X` matmuls.

It is correct, simple, and pays O(N^2) memory and compute per batch, which
is exactly why specialised GNN frameworks exist; the
`ablation_dense_baseline` record quantifies the gap.
"""

from repro.densex.data import DenseBatch, dense_batch
from repro.densex.models import DenseGCNNet

__all__ = ["DenseBatch", "dense_batch", "DenseGCNNet"]

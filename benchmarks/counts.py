"""Work counts computed from the layer shapes, not measured.

A traced run divides them by measured self time to give achieved GFLOP/s
and GB/s. Only the matrix products are counted: bias adds, activations
and losses are a few percent of the arithmetic at these widths.
"""

from __future__ import annotations

# float64 accesses per parameter in one single-pass Adam update with
# decoupled weight decay: read p, g, m, v; write p, m, v
ADAM_ACCESSES_PER_PARAM = 7
BYTES_PER_FLOAT = 8


def layer_shapes(lib):
    """{layer name: (fan_in, fan_out)} of the default network."""
    plan = lib.model.layer_plan(lib.model.NetConfig())
    return {name: (fan_in, fan_out) for name, fan_in, fan_out in plan}


def work(lib):
    shapes = layer_shapes(lib)
    params = sum(i * o + o for i, o in shapes.values())
    macs_per_row = sum(i * o for i, o in shapes.values())
    return {
        "label": "computed",
        "layers": len(shapes),
        "params": params,
        "gemm_flops_per_predicted_row": 2 * macs_per_row,
        # forward x@W, backward x.T@g and g@W.T: three GEMMs per layer
        "gemm_flops_per_train_row": 6 * macs_per_row,
        "gemm_flops_per_step_b32": 6 * macs_per_row * 32,
        "gemm_flops_per_step_b256": 6 * macs_per_row * 256,
        "optimizer_bytes_per_step": ADAM_ACCESSES_PER_PARAM * BYTES_PER_FLOAT * params,
    }


def span_flops(shapes, name, rows):
    """GEMM FLOPs of one traced linear_forward/linear_backward call."""
    kind, _, layer = name.partition(".")[2].partition(".")
    fan_in, fan_out = shapes[layer]
    per_gemm = 2 * rows * fan_in * fan_out
    return per_gemm if kind == "linear_forward" else 2 * per_gemm

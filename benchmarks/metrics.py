"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same metrics; the
self-tests check that the two agree.

End-to-end metrics come from an untraced run (``--trace 0``).  Per-layer
metrics come from a separate traced run (``--trace 1``):

* ``ladder.*``, ``tensor.backward_ms``, ``train.adam_step_ms`` and
  ``train.evaluate_ms`` are inclusive times of those calls.
* ``ops.*``, ``kernels.conv2d_*``, ``rng.normal_ms``, ``tensor.backward.*``
  and ``tensor.accumulate_grad_ms`` are self times (children subtracted), so
  they add up without double counting; ``train.step_other_ms`` is the
  step's own self time (step wall minus loss, backward and Adam).
* Step-layer metrics are per training step of the traced step loop;
  ``train.evaluate_ms`` and ``checkpoint.*`` are per ``train()`` call;
  ``ladder.predict_ms`` is per prediction of the held-out set;
  ``data.*``, ``cube_io.*`` and ``synthetic.*`` are per set-up.
"""

LADDER_PHASES = (
    "corrupted_encoder", "clean_encoder", "decoder", "reconstruction_cost", "supervised_cost",
)

# reported op kind -> function name in ``hsiladder.ops``
OP_KINDS = {
    "conv2d": "conv2d",
    "conv2d_transpose": "conv2d_transpose",
    "batchnorm": "batchnorm",
    "matmul": "matmul",
    "mul": "mul",
    "add": "add",
    "sub": "sub",
    "div": "div",
    "sigmoid": "sigmoid",
    "relu": "relu",
    "exp": "exp",
    "log_softmax": "log_softmax",
    "square": "square",
    "sqrt": "sqrt",
    "reduce_mean": "reduce_mean",
    "gaussian_noise": "add_gaussian_noise",
}

# every node name ``hsiladder.ops`` records on a tape
NODE_KINDS = (
    "add", "sub", "mul", "div", "square", "sqrt", "exp", "scale", "relu", "sigmoid",
    "log_softmax", "nll_loss", "matmul", "conv2d", "conv2d_transpose", "reshape",
    "slice_rows", "sum_all", "reduce_mean", "batchnorm", "gaussian_noise",
)

KERNEL_FNS = ("forward", "input_grad", "kernel_grad")

# the three convolutions of the paper conv ladder on a 200-patch batch:
# (input NHWC, kernel (kh, kw, cin, cout))
PAPER_CONV_SHAPES = (
    ((200, 7, 7, 15), (3, 3, 15, 90)),
    ((200, 5, 5, 90), (3, 3, 90, 30)),
    ((200, 3, 3, 30), (3, 3, 30, 15)),
)

END_TO_END = (
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "step_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "step_ms_p90", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "eval_patches_per_s", "unit": "patches/s", "better": "higher", "bound": 0.2},
    {"name": "train_wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "oa", "unit": "fraction", "better": "higher", "bound": 0.25},
    {"name": "aa", "unit": "fraction", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
)


def per_layer() -> list[dict]:
    out = []

    def add(name, unit, better="lower"):
        out.append({"name": name, "unit": unit, "better": better})

    for phase in LADDER_PHASES:
        add(f"ladder.{phase}_ms", "ms")
    add("ladder.predict_ms", "ms")
    add("tensor.backward_ms", "ms")
    add("tensor.nodes_per_step", "count")
    add("tensor.accumulate_grad_ms", "ms")
    add("tensor.accumulate_grad_calls", "count")
    for kind in NODE_KINDS:
        add(f"tensor.backward.{kind}_ms", "ms")
    for kind in OP_KINDS:
        add(f"ops.{kind}_ms", "ms")
        add(f"ops.{kind}_calls", "count")
    for fn in KERNEL_FNS:
        add(f"kernels.conv2d_{fn}_ms", "ms")
        add(f"kernels.conv2d_{fn}_calls", "count")
    add("kernels.gflop_per_step", "GFLOP")
    add("kernels.gflops", "GFLOP/s", "higher")
    for i in range(1, len(PAPER_CONV_SHAPES) + 1):
        for fn in KERNEL_FNS:
            add(f"kernels.conv{i}.{fn}_ms", "ms")
        add(f"kernels.conv{i}.gflop", "GFLOP")
    add("train.adam_step_ms", "ms")
    add("train.step_other_ms", "ms")
    add("train.evaluate_ms", "ms")
    add("checkpoint.save_ms", "ms")
    add("checkpoint.save_bytes", "bytes")
    add("checkpoint.save_calls", "count")
    for fn in ("prepare_dataset", "scale_bands", "pca_fit", "extract_patches"):
        add(f"data.{fn}_ms", "ms")
    add("cube_io.read_ms", "ms")
    add("cube_io.read_bytes", "bytes")
    add("synthetic.make_cube_ms", "ms")
    add("rng.normal_ms", "ms")
    add("rng.normal_values", "count")
    add("trace.overhead_ms", "ms")
    return out

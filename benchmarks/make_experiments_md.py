#!/usr/bin/env python
"""Assemble EXPERIMENTS.md from benchmarks/results/*.txt.

Run after ``pytest benchmarks/ --benchmark-only`` so the document always
reflects the latest measured numbers:

    python benchmarks/make_experiments_md.py
"""

from __future__ import annotations

import pathlib

RESULTS = pathlib.Path(__file__).parent / "results"
TARGET = pathlib.Path(__file__).parent.parent / "EXPERIMENTS.md"

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation (Section 5), reproduced
on the simulated p3.8xlarge and compared against the published values.
Regenerate with:

```bash
python -m pytest benchmarks/ --benchmark-only   # writes benchmarks/results/
python benchmarks/make_experiments_md.py        # rebuilds this file
```

**Reading guidance.** Our substrate is a calibrated discrete-event
simulator, not the authors' AWS testbed, so absolute numbers are model
outputs; the claims we reproduce are the paper's *shapes* — who wins, by
roughly what factor, where crossovers fall. A handful of the paper's own
measurements are used as calibration anchors (marked below); everything
else is out-of-sample. Serving results here use the default scaled-down
request counts; `REPRO_FULL=1` runs the paper-sized versions with the
same qualitative outcomes.
"""

# (results file, title, commentary) in paper order.
SECTIONS = [
    ("fig02_stall_decomposition", "Figure 2 — PipeSwitch latency decomposition", """
**Paper:** under pipelined provisioning, stalls account for 73–75 % of
inference latency for BERT/RoBERTa (large embeddings) and 27–37 % for
ResNet and GPT-2.

**Measured:** BERT/RoBERTa land at 71–76 %, ResNet/GPT-2 at 21–32 %.
GPT-2 Medium comes in slightly below the paper's band (its seq-1024
compute hides more of the loading in our model). **Shape holds.**
"""),
    ("fig05_layer_microbench", "Figure 5 — load-then-execute vs direct-host-access per layer", """
**Paper (Section 3.1):** DHA wins for embeddings at every size (its cost
is independent of table size); small/medium convolutions are close to a
wash and large ones favour loading; fully-connected layers favour loading
at every size; BatchNorm favours DHA, LayerNorm loading.

**Measured:** every winner matches, the embedding DHA time is constant
across table sizes (168 µs for 1.5 MiB and 89.4 MiB alike), the conv gap
widens with size, and FC DHA is ~10× worse. **Shape holds.** (The layer
traffic model is calibrated to Table 1; the *time* winners here are
out-of-sample consequences.)
"""),
    ("table1_pcie_events", "Table 1 — PCIe read transactions (calibration anchor)", """
**Paper:** hardware-counter (PCIeRdCur) readings for loading vs DHA.

**Measured:** all 12 entries within 4 % — this table is what the DHA
traffic model (embedding row gathers, conv ≈1.8× restream, FC tile
re-reads at seq/32, i.e. 12× at 384 tokens) is fitted to.
"""),
    ("fig06_transmission", "Figure 6 — serial vs parallel model transmission", """
**Paper (Section 3.2):** parallel(2) cuts load time 30–45 %;
parallel-pipeline(2) nearly halves it for transformers and ~40 % for
ResNet; with four GPUs (two per switch) the gain mostly evaporates.

**Measured:** parallel(2) reductions of 31–45 %; parallel-pipeline(2)
halves BERT/RoBERTa/GPT-2 load times; four GPUs regress the transformers
back toward two-GPU times. For ResNet-50 parallel and parallel-pipeline
tie (its primary partition, dense with small layers, is the critical
path either way). **Shape holds.**
"""),
    ("table2_pcie_bandwidth", "Table 2 — average PCIe bandwidth (calibration anchor)", """
**Paper:** 9.1–11.5 GB/s effective per lane serial; unchanged with one
cross-switch partner; ~6 GB/s per lane with four GPUs.

**Measured:** within 20 % everywhere and usually much closer — the lane
rate (12 GB/s) and per-copy overhead (28 µs) are fitted to the serial
column; the contended column *emerges* from switch-uplink sharing.
"""),
    ("fig11_single_inference", "Figure 11 — single-inference speedups (the headline)", """
**Paper:** DeepPlan (DHA) beats PipeSwitch on every model (1.10–1.43×
for transformers, 1.01–1.03× for ResNet); PT+DHA is best everywhere —
1.94× for BERT-Base, 2.21× for RoBERTa-Base, 1.74× for BERT-Large over
PipeSwitch; PT alone barely helps GPT-2.

**Measured:** DHA gives 1.12–1.41× on transformers and is never worse
than PipeSwitch; PT+DHA is best on every model with BERT-Base at ~1.9–2.0×
and BERT-Large at ~1.75×. Deviations: our ResNet DHA gain (~1.15–1.2×)
exceeds the paper's 1.01–1.03× — real zero-copy convolution kernels are
evidently worse than our 25 µs-penalty model — and our RoBERTa-Base
PT+DHA (~1.94×) sits below the paper's 2.21× best case. **Shape holds**
(ordering, headline factor, GPT-2's indifference to PT).
"""),
    ("fig11_raw_latency", "Figure 11 (raw latencies)", """
Raw cold-start latencies behind the speedups. PipeSwitch values track
the paper's Table 4 column within ~5–8 % (calibration anchor); the
Baseline and PT columns are out-of-sample.
"""),
    ("table3_plan_excerpts", "Table 3 — generated plan excerpts", """
**Paper:** the per-layer "initial approach" picks DHA for layers whose
isolated time favours it, but DeepPlan re-decides with pipeline
awareness: some mid-network ResNet convolutions flip back to loading
(their load latency is hidden anyway), and GPT-2 keeps only ``wte``
host-side — the published row is X O O O O.

**Measured:** GPT-2's row is exactly X O O O O, and the ResNet-101
excerpt shows the same conv flips (plus BatchNorms converted to kill
stalls). **Matches.**
"""),
    ("table4_interference", "Table 4 — parallel-transmission interference", """
**Paper:** two simultaneous PT+DHA cold-starts slow each other but each
still beats PipeSwitch.

**Measured:** the same property on every model. Absolute PT+DHA(2)
numbers land within ~10 % of the paper's except GPT-2 Medium (~6 % above
the paper but still below PipeSwitch). The mildness of the interference
required issuing borrowed-lane copies at reduced DMA priority
(weight 0.4) — `bench_ablation_priority.py` shows that with equal
priority the exec-bound GPT-2 Medium would fall behind PipeSwitch,
contradicting this table. **Shape holds.**
"""),
    ("fig12_batching", "Figure 12 — throughput with batching 1–8", """
**Paper:** PT+DHA has the best throughput at every batch size; its lead
over PipeSwitch narrows as batching grows the computation that pipelining
can hide behind.

**Measured:** PT+DHA ≥ PipeSwitch at every (model, batch) point, and the
transformer gaps narrow monotonically with batch size. **Shape holds.**
"""),
    ("table5_profiling_cost", "Table 5 — profiling cost", """
**Paper:** one-time per-(model, machine) profiling of seconds to ~a
minute; the DHA pre-run dominates; cost grows with model size and
execution time.

**Measured:** same structure and magnitude (ResNet-50 ≈ 9 s …
GPT-2 Medium ≈ 66 s for 10 iterations). Our per-model ordering differs
from the paper's in one place (the paper's RoBERTa-Large DHA pre-run is
anomalously expensive relative to GPT-2 Medium; ours tracks DHA traffic,
which seq-1024 GPT-2 dominates). The paper's own caveat applies: this is
a one-time cost, not on the serving path.
"""),
    ("fig13_serving_concurrency", "Figure 13 — serving BERT-Base past GPU memory", """
**Paper:** with 100 req/s over growing instance counts on four V100s:
PipeSwitch's p99 degrades sharply from ~120 instances; DeepPlan (DHA)
stays stable to ~160; PT+DHA serves 180 within the 100 ms SLO and
improves goodput 1.84× over PipeSwitch at 180. PipeSwitch fits 100
instances warm, DeepPlan 124, so DeepPlan's cold-starts start later.

**Measured:** PipeSwitch violates the SLO at 120 (p99 ≈ 128 ms); DHA
holds to 160 (≈ 87 ms) and violates at 180; PT+DHA stays within SLO at
180 (≈ 75 ms); warm capacities are exactly 100 and 124; cold-starts
begin at 120 vs 140 on the sweep grid; the goodput ratio at 180 is
≈ 2.2× (paper 1.84×). **Shape holds** — including the two capacity
numbers, which fall out of the 5.8 GB workspace carve-out plus the
planner's decision to keep ~91 MiB of embeddings host-side.
"""),
    ("fig14_large_models", "Figure 14 — serving BERT-Large and GPT-2", """
**Paper:** same experiment at 30 req/s (BERT-Large) and 90 req/s
(GPT-2): DeepPlan improves the tail substantially over PipeSwitch; for
GPT-2 the DHA-vs-PT+DHA gap is small (PT+DHA's single-inference lead
over DHA is narrow there).

**Measured:** both DeepPlan variants dominate PipeSwitch at every
over-capacity point for both models, and GPT-2's DHA and PT+DHA curves
stay within ~25 % of each other. **Shape holds.**
"""),
    ("fig15_maf_trace", "Figure 15 — Azure-Functions-like trace replay", """
**Paper:** replaying a scaled MAF trace (BERT-Base : RoBERTa-Base : GPT-2
= 4:4:1, 150 req/s, 3 h): DeepPlan achieves 98–99 % goodput vs ~81–98 %
for PipeSwitch, keeps p99 under ~100 ms where PipeSwitch exceeds 150 ms,
with occasional non-persistent spikes.

**Measured (synthetic trace with the paper's stated properties —
sustained heavy hitters, fluctuations, spikes, rare-function tail):**
DHA and PT+DHA goodput ≥ 98 %, PipeSwitch below both; whole-trace p99
for PT+DHA a fraction of PipeSwitch's; per-minute curves show the same
occasional spikes that subside. **Shape holds.** (Default run replays a
10-minute slice; `REPRO_FULL=1` replays 3 hours.)
"""),
    ("fig16_pcie4", "Figure 16 — PCIe 4.0 / 2× RTX A5000", """
**Paper (Section 5.4):** the plan-generation approach transfers to a
different machine; the Figure 11 improvement trend holds on two A5000s
with NVLink over PCIe 4.0, where faster links shrink absolute stalls.

**Measured:** same ordering on the `a5000x2` preset (DHA ≥ PipeSwitch,
PT+DHA best), with every cold start absolutely faster than on the PCIe
3.0 V100 box. **Shape holds.**
"""),
    ("ablation_planner", "Ablation — pipeline-aware planning (Algorithm 1)", """
Quantifies Table 3's story on executed latency: the naive per-layer
comparison is better than pure pipelining but Algorithm 1 dominates both
on every model tested.
"""),
    ("ablation_topology", "Ablation — PCIe-switch-aware secondary choice", """
Section 4.3.3's rule, quantified: a same-switch secondary forfeits most
of PT's benefit, and for the exec-bound GPT-2 Medium it is *worse than
not parallelizing at all* — which is why the planner refuses PT without
a cross-switch NVLink peer.
"""),
    ("ablation_priority", "Ablation — borrowed-lane DMA priority", """
The mechanism behind Table 4's mild interference: with equal-priority
copies, a concurrent cold-start's borrowed-lane traffic starves the
victim's first partition; at weight 0.4 both concurrent PT+DHA
cold-starts stay ahead of PipeSwitch on every model.
"""),
    ("ablation_eviction", "Ablation — eviction policy on a heavy-tailed trace", """
The paper's LRU choice, stress-tested: under the skewed MAF-like trace,
recency/frequency-aware policies (LRU, LFU) keep the hot instances
resident and beat random eviction on cold-start rate.
"""),
    ("ablation_large_model", "Extension (§7) — serving beyond GPU memory", """
The paper's "cost-effective alternative to pipeline parallelism":
shedding GPT-2 Medium's embeddings (~200 MiB) to host memory costs
almost no warm latency; shedding dense GEMM weights has a real,
monotonically growing price. The sweep makes the memory/latency
trade-off explicit.
"""),
    ("ablation_moe", "Extension (§7) — mixture-of-experts provisioning", """
The paper's MoE sketch, implemented: once the routed experts of a pass
are identified, provisioning the routed submodel instead of the full
8-expert bank cuts transmission ~65 % and stacks with PT+DHA for a
multi-x total cold-start speedup.
"""),
    ("ablation_dgx1", "Extension — 3-way parallel transmission on DGX-1", """
On an 8-GPU, 4-switch DGX-1 (hybrid cube-mesh NVLink) a primary can
recruit two cross-switch secondaries. The third lane keeps helping the
big load-bound models (BERT-Large) with diminishing returns elsewhere —
consistent with the paper's observation that PT's value tracks how
load-bound the model is.
"""),
    ("ablation_openloop", "Methodology — coordinated omission "
                          "(open vs closed loop)", """
Why the harness measures the way it does: the fig15 MAF mix plus a
flash crowd, measured twice through `repro.loadgen` — once by a
closed-loop connection pool (the naive harness), once open-loop
(arrivals fire at their intended times, latency from intended arrival).
The closed loop's arrivals evaporate during the overload it causes, so
its p99 misses the stall almost entirely; the open-loop p99 is the one
an open-world client population would experience. All latency reporting
in this repo is open-loop-safe (exact-rank percentiles over HDR-style
histograms; goodput counts shed/dropped requests) — see
`docs/loadgen.md`.
"""),
    ("ablation_sharded", "Methodology — sharded parallel replay "
                         "(differential oracle)", """
How large fleet replays scale without giving up determinism: the fleet
is partitioned into per-process shards synchronized in bounded time
epochs (`repro.shard`), with the router acting as an epoch-boundary
message broker. Every row of the sweep — any shard count, serial or
spawn-process backend — reproduces the single-process reference
bit-for-bit (same request outcomes, same merged latency histograms,
same conservation ledgers). The table's last line gives the 4-shard
speedup with the CPU count of the host that ran it: at this reduced
scale, worker start-up and IPC outweigh the event-loop work the shards
split, so sharding is slower than the reference. `REPRO_FULL=1` runs the
100-machine replay, where `bench_ablation_sharded.py` asserts a >3x
speedup at 4 process shards on hosts with at least 4 CPUs; no committed
artefact measures it yet. See `docs/sharding.md` for the epoch protocol
and the lookahead argument.
"""),
]

FOOTER = """\
## Summary of deviations

1. **ResNet DHA-only speedup** measured ~1.15–1.2× vs the paper's
   1.01–1.03×: our fixed 25 µs zero-copy kernel penalty understates how
   badly real cudnn kernels behave on pinned memory. The qualitative
   claim (ResNet gains least from DHA) is preserved.
2. **RoBERTa-Base PT+DHA** ~1.9–2.0× vs the paper's 2.21× best case
   (and symmetrically our RoBERTa-Large slightly exceeds the paper's).
3. **GPT-2 Medium PT+DHA(2)** ~6 % above the paper's value (but, as the
   paper claims, still below PipeSwitch).
4. **Table 5 profiling costs** match in magnitude and structure but not
   per-model ordering (see that section).
5. Serving defaults use fewer requests than the paper's 1,000+ per point
   and a 10-minute trace slice; `REPRO_FULL=1` removes this difference.

Calibration anchors (fitted, not independent evidence): Table 1 event
counts, Table 2 serial bandwidths, warm BERT-Base latency (9.35 ms),
PipeSwitch Table 4 column, the Figure 13 warm capacities. Everything
else above is out-of-sample behaviour of the calibrated model.

## Wall-clock performance

The numbers above are *simulated* milliseconds; how long the simulator
itself takes to produce them is a separate question. `benchmarks/e2e/`
measures it end to end on four replay workloads — requests per second,
set-up time and peak memory, with every run's simulated outcomes checked
against pinned digests (`python3 benchmarks/e2e/run.py`, see
`benchmarks/e2e/README.md`). The simulation fast path (incremental
fair-share rebalancing, Algorithm-1 memoization, plan caching — see
`docs/performance.md`) keeps simulated outputs identical to the
reference paths; `tests/test_fastpath_differential.py` checks that on
whole fig13/fig15-style serving replays. A change is compared with its
parent by paired runs of those workloads (`python
benchmarks/perf_gate.py BASE`, CI's perf-gate job). The committed
comparisons, each recording its host's CPU count, are
`benchmarks/results/*_e2e.txt` and
`benchmarks/results/perf_gate_validation.txt`.
"""


def render() -> str:
    """The text of EXPERIMENTS.md from the committed result files."""
    parts = [HEADER]
    for name, title, commentary in SECTIONS:
        path = RESULTS / f"{name}.txt"
        parts.append(f"\n---\n\n## {title}\n{commentary}")
        if path.exists():
            parts.append("```\n" + path.read_text().rstrip() + "\n```\n")
        else:
            parts.append(f"*(run the benchmarks to generate "
                         f"`benchmarks/results/{name}.txt`)*\n")
    parts.append("\n---\n\n" + FOOTER)
    return "".join(parts)


def main() -> None:
    TARGET.write_text(render())
    missing = [name for name, _, _ in SECTIONS
               if not (RESULTS / f"{name}.txt").exists()]
    status = f"wrote {TARGET}"
    if missing:
        status += f" ({len(missing)} result files missing: {missing})"
    print(status)


if __name__ == "__main__":
    main()

"""The DL inference serving system (paper Section 5.3).

A Clockwork-style multi-GPU server: each GPU executes one inference at a
time; model *instances* (one per tenant/service) are statically homed on
GPUs; when a request arrives for an instance that is not resident, the
least-recently-used instances are evicted and the model is provisioned
with the configured strategy (PipeSwitch pipelining or a DeepPlan plan —
optionally borrowing the cross-switch partner GPU's PCIe lane for
parallel transmission).

Workloads: Poisson arrivals uniformly spread over instances (Figures 13
and 14) and a synthetic Microsoft-Azure-Functions-like trace with heavy
sustained functions, rate fluctuations, and spikes (Figure 15).

Everything runs in simulated time on the same machine model the engine
uses, so serving traffic, DHA reads, and cold-start transmissions all
contend on the same PCIe links.
"""

from repro.serving.instance import ModelInstance
from repro.serving.cache import InstanceCache, LRUInstanceCache
from repro.serving.workload import PoissonWorkload, Request, TraceWorkload
from repro.serving.maf import MAFTraceConfig, synthesize_maf_trace
from repro.serving.histogram import LatencyHistogram, merge_histograms
from repro.serving.metrics import (MIN_TAIL_COUNT, MetricsCollector,
                                   RequestRecord, WindowStats)
from repro.serving.server import (InferenceServer, OutcomeListener,
                                  ServerConfig, ServingReport)

__all__ = [
    "InferenceServer",
    "InstanceCache",
    "LatencyHistogram",
    "LRUInstanceCache",
    "MAFTraceConfig",
    "MetricsCollector",
    "MIN_TAIL_COUNT",
    "merge_histograms",
    "ModelInstance",
    "OutcomeListener",
    "PoissonWorkload",
    "Request",
    "RequestRecord",
    "ServerConfig",
    "ServingReport",
    "TraceWorkload",
    "WindowStats",
    "synthesize_maf_trace",
]

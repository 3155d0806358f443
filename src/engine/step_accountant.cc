#include "engine/step_accountant.h"

#include <algorithm>

#include "util/logging.h"

namespace fae {

/// Gathers through a GPU-side cache index (hash/indirection) run ~1.5x a
/// direct gather. Shared by the transparent-cache baseline and the
/// lookahead oracle cache so the two models stay comparable.
constexpr double kCacheIndirection = 1.5;

StepAccountant::BaselineParts StepAccountant::ChargeBaselineStep(
    const BatchWork& w, Timeline& tl) const {
  BaselineParts parts;
  const SystemSpec& sys = cost_->system();
  const int g = std::max(1, sys.num_gpus);
  const int nodes = std::max(1, sys.num_nodes);
  const int world = g * nodes;

  // Embedding forward: random gathers on the CPUs. With one node the CPU
  // handles the full global batch (the baseline's bottleneck); multi-node
  // clusters shard the tables parameter-server style across the per-node
  // CPUs, so each CPU gathers 1/nodes of the traffic but (nodes-1)/nodes
  // of the pooled activations must cross the network each way.
  const double emb_fwd =
      cost_->GatherSeconds(w.embedding_read_bytes / nodes, sys.cpu);
  tl.ChargeCpu(Phase::kEmbeddingForward, emb_fwd);
  parts.cpu += emb_fwd;
  if (nodes > 1) {
    const uint64_t remote =
        w.embedding_activation_bytes * (nodes - 1) / nodes;
    const double hop = cost_->NetworkTransferSeconds(remote / nodes);
    tl.Charge(Phase::kNetwork, hop);
    tl.Charge(Phase::kNetwork, hop);
    parts.serial += 2 * hop;
    tl.AddNetworkBytes(2 * remote);
  }

  // Pooled embedding activations to the GPUs (each GPU pulls its shard in
  // parallel over its own PCIe link).
  const double xfer =
      cost_->PcieTransferSeconds(w.embedding_activation_bytes / world);
  tl.Charge(Phase::kCpuGpuTransfer, xfer);
  parts.serial += xfer;
  tl.AddPcieBytes(w.embedding_activation_bytes);

  // Dense network on the GPUs, data-parallel over the batch shards.
  const uint64_t shard = w.batch_size / world;
  const double mlp_fwd = cost_->DenseComputeSeconds(w.forward_flops / world,
                                                    shard, sys.gpu);
  tl.ChargeGpu(Phase::kMlpForward, mlp_fwd);
  const double mlp_bwd = cost_->DenseComputeSeconds(
      2 * w.forward_flops / world, shard, sys.gpu);
  tl.ChargeGpu(Phase::kMlpBackward, mlp_bwd);
  parts.gpu += mlp_fwd + mlp_bwd;

  // Embedding gradients back to the CPU.
  tl.Charge(Phase::kCpuGpuTransfer, xfer);
  parts.serial += xfer;
  tl.AddPcieBytes(w.embedding_activation_bytes);

  // Scatter gradients into the tables, then the sparse optimizer — both on
  // the CPUs (paper Fig 14: the optimizer dominates baseline time).
  const double emb_bwd =
      cost_->GatherSeconds(w.embedding_read_bytes / nodes, sys.cpu);
  tl.ChargeCpu(Phase::kEmbeddingBackward, emb_bwd);
  const double sparse_opt =
      sys.cpu.sparse_update_overhead *
      cost_->GatherSeconds(3 * w.touched_bytes / nodes, sys.cpu);
  tl.ChargeCpu(Phase::kOptimizerSparse, sparse_opt);
  parts.cpu += emb_bwd + sparse_opt;

  // Dense parameters: all-reduce across the cluster, optimizer on GPUs.
  const uint64_t dense_bytes = w.dense_param_count * sizeof(float);
  const double allreduce = cost_->AllReduceSeconds(dense_bytes);
  tl.Charge(Phase::kAllReduce, allreduce);
  parts.serial += allreduce;
  if (g > 1) tl.AddNvlinkBytes(2 * (g - 1) * dense_bytes / g * g);
  if (nodes > 1) tl.AddNetworkBytes(2 * (nodes - 1) * dense_bytes / nodes);
  const double dense_opt = cost_->StreamSeconds(3 * dense_bytes, sys.gpu);
  tl.ChargeGpu(Phase::kOptimizerDense, dense_opt);
  parts.gpu += dense_opt;
  return parts;
}

double StepAccountant::ChargeInputPrep(uint64_t batch_bytes,
                                       Timeline& tl) const {
  // Staging a mini-batch is a CPU gather (random sample rows) into a
  // contiguous workspace; model it as random-access traffic at the CPU's
  // gather efficiency. Derived from batch contents alone, so cost-only and
  // math runs charge identically.
  const double seconds =
      cost_->GatherSeconds(batch_bytes, cost_->system().cpu);
  tl.ChargeCpu(Phase::kInputPrep, seconds);
  return seconds;
}

void StepAccountant::ChargeHotStep(const BatchWork& w, Timeline& tl) const {
  const SystemSpec& sys = cost_->system();
  const int g = std::max(1, sys.num_gpus);
  const int nodes = std::max(1, sys.num_nodes);
  const int world = g * nodes;

  // Embedding lookups on each GPU's replica, sharded over the batch.
  tl.ChargeGpu(Phase::kEmbeddingForward,
               cost_->GatherSeconds(w.embedding_read_bytes / world, sys.gpu));

  const uint64_t shard = w.batch_size / world;
  tl.ChargeGpu(Phase::kMlpForward,
               cost_->DenseComputeSeconds(w.forward_flops / world, shard,
                                          sys.gpu));
  tl.ChargeGpu(Phase::kMlpBackward,
               cost_->DenseComputeSeconds(2 * w.forward_flops / world, shard,
                                          sys.gpu));

  tl.ChargeGpu(Phase::kEmbeddingBackward,
               cost_->GatherSeconds(w.embedding_read_bytes / world, sys.gpu));

  // One all-reduce covering dense *and* hot-embedding gradients (§II-B(3):
  // "all-reduce on all the gradients including both embedding and neural
  // network layers over the fast NVLink").
  const uint64_t grad_bytes =
      w.dense_param_count * sizeof(float) + w.touched_bytes;
  tl.Charge(Phase::kAllReduce, cost_->AllReduceSeconds(grad_bytes));
  if (g > 1) tl.AddNvlinkBytes(2 * (g - 1) * grad_bytes / g * g);
  if (nodes > 1) tl.AddNetworkBytes(2 * (nodes - 1) * grad_bytes / nodes);

  // Optimizers run on every GPU against its own replica (full update each,
  // concurrently) — the "massively parallel" step the baseline wastes on
  // the CPU.
  tl.ChargeGpu(Phase::kOptimizerSparse,
               sys.gpu.sparse_update_overhead *
                   cost_->GatherSeconds(3 * w.touched_bytes, sys.gpu));
  tl.ChargeGpu(
      Phase::kOptimizerDense,
      cost_->StreamSeconds(3 * w.dense_param_count * sizeof(float), sys.gpu));
}

void StepAccountant::ChargeSyncToGpus(uint64_t hot_bytes,
                                      Timeline& tl) const {
  const SystemSpec& sys = cost_->system();
  const int g = std::max(1, sys.num_gpus);
  const int nodes = std::max(1, sys.num_nodes);
  // Broadcast over per-GPU PCIe links proceeds in parallel; remote nodes
  // first receive the slice over the network (sends fan out in parallel).
  tl.Charge(Phase::kEmbeddingSync, cost_->PcieTransferSeconds(hot_bytes));
  tl.AddPcieBytes(hot_bytes * static_cast<uint64_t>(g * nodes));
  if (nodes > 1) {
    tl.Charge(Phase::kEmbeddingSync,
              cost_->NetworkTransferSeconds(hot_bytes));
    tl.AddNetworkBytes(hot_bytes * static_cast<uint64_t>(nodes - 1));
  }
}

void StepAccountant::ChargeSyncToCpu(uint64_t hot_bytes, Timeline& tl) const {
  const SystemSpec& sys = cost_->system();
  const int nodes = std::max(1, sys.num_nodes);
  // All replicas are identical; the GPU nearest each CPU shard ships the
  // rows back, and with sharded masters each node's share crosses PCIe
  // locally (no inter-node hop needed).
  tl.Charge(Phase::kEmbeddingSync,
            cost_->PcieTransferSeconds(hot_bytes / nodes));
  tl.AddPcieBytes(hot_bytes);
}

void StepAccountant::ChargeNvOptStep(const BatchWork& w,
                                     const std::vector<bool>& table_on_gpu,
                                     size_t dim, size_t batch_size,
                                     Timeline& tl) const {
  const SystemSpec& sys = cost_->system();
  const int g = std::max(1, sys.num_gpus);
  FAE_CHECK_EQ(table_on_gpu.size(), w.per_table_lookups.size());

  uint64_t gpu_lookup_bytes = 0;
  uint64_t gpu_touched_bytes = 0;
  uint64_t cpu_lookup_bytes = 0;
  uint64_t cpu_touched_bytes = 0;
  uint64_t cpu_activation_bytes = 0;
  const uint64_t row_bytes = dim * sizeof(float);
  for (size_t t = 0; t < table_on_gpu.size(); ++t) {
    const uint64_t lb = w.per_table_lookups[t] * row_bytes;
    const uint64_t tb = w.per_table_touched[t] * row_bytes;
    if (table_on_gpu[t]) {
      gpu_lookup_bytes += lb;
      gpu_touched_bytes += tb;
    } else {
      cpu_lookup_bytes += lb;
      cpu_touched_bytes += tb;
      cpu_activation_bytes += batch_size * row_bytes;  // pooled output
    }
  }

  // GPU-resident tables: fp16 storage halves the traffic but pays a
  // convert step folded into the gather efficiency here as +50% time.
  tl.ChargeGpu(Phase::kEmbeddingForward,
               1.5 * cost_->GatherSeconds(gpu_lookup_bytes / 2 / g, sys.gpu));
  tl.ChargeGpu(Phase::kEmbeddingBackward,
               1.5 * cost_->GatherSeconds(gpu_lookup_bytes / 2 / g, sys.gpu));
  tl.ChargeGpu(Phase::kOptimizerSparse,
               cost_->GatherSeconds(3 * gpu_touched_bytes / 2, sys.gpu));

  // CPU-resident tables follow the baseline path.
  if (cpu_lookup_bytes > 0) {
    tl.ChargeCpu(Phase::kEmbeddingForward,
                 cost_->GatherSeconds(cpu_lookup_bytes, sys.cpu));
    tl.Charge(Phase::kCpuGpuTransfer,
              cost_->PcieTransferSeconds(cpu_activation_bytes / g));
    tl.Charge(Phase::kCpuGpuTransfer,
              cost_->PcieTransferSeconds(cpu_activation_bytes / g));
    tl.AddPcieBytes(2 * cpu_activation_bytes);
    tl.ChargeCpu(Phase::kEmbeddingBackward,
                 cost_->GatherSeconds(cpu_lookup_bytes, sys.cpu));
    tl.ChargeCpu(Phase::kOptimizerSparse,
                 sys.cpu.sparse_update_overhead *
                     cost_->GatherSeconds(3 * cpu_touched_bytes, sys.cpu));
  }

  // Dense network identical to the other placements.
  const uint64_t shard = w.batch_size / g;
  tl.ChargeGpu(Phase::kMlpForward,
               cost_->DenseComputeSeconds(w.forward_flops / g, shard,
                                          sys.gpu));
  tl.ChargeGpu(Phase::kMlpBackward,
               cost_->DenseComputeSeconds(2 * w.forward_flops / g, shard,
                                          sys.gpu));
  const uint64_t grad_bytes =
      w.dense_param_count * sizeof(float) + gpu_touched_bytes / 2;
  tl.Charge(Phase::kAllReduce, cost_->AllReduceSeconds(grad_bytes));
  if (g > 1) tl.AddNvlinkBytes(2 * (g - 1) * grad_bytes / g * g);
  tl.ChargeGpu(
      Phase::kOptimizerDense,
      cost_->StreamSeconds(3 * w.dense_param_count * sizeof(float), sys.gpu));
}

void StepAccountant::ChargeModelParallelStep(const BatchWork& w,
                                             Timeline& tl) const {
  const SystemSpec& sys = cost_->system();
  const int g = std::max(1, sys.num_gpus);
  const uint64_t shard = w.batch_size / g;

  // Each GPU gathers the lookups landing in its table shard (balanced
  // partition assumed).
  tl.ChargeGpu(Phase::kEmbeddingForward,
               cost_->GatherSeconds(w.embedding_read_bytes / g, sys.gpu));

  // All-to-all of pooled activations: every GPU owns 1/g of the features
  // for the whole batch but needs all features for its 1/g batch shard.
  if (g > 1) {
    const uint64_t exchanged =
        w.embedding_activation_bytes * (g - 1) / g;
    const double a2a = 2.0 * sys.nvlink.latency +
                       static_cast<double>(exchanged) /
                           static_cast<double>(g) / sys.nvlink.bandwidth;
    tl.Charge(Phase::kAllReduce, a2a);
    tl.AddNvlinkBytes(exchanged);
    // Gradients of the pooled activations flow back the same way.
    tl.Charge(Phase::kAllReduce, a2a);
    tl.AddNvlinkBytes(exchanged);
  }

  tl.ChargeGpu(Phase::kMlpForward,
               cost_->DenseComputeSeconds(w.forward_flops / g, shard,
                                          sys.gpu));
  tl.ChargeGpu(Phase::kMlpBackward,
               cost_->DenseComputeSeconds(2 * w.forward_flops / g, shard,
                                          sys.gpu));

  tl.ChargeGpu(Phase::kEmbeddingBackward,
               cost_->GatherSeconds(w.embedding_read_bytes / g, sys.gpu));
  // Sharded sparse optimizer: each GPU updates only its tables.
  tl.ChargeGpu(Phase::kOptimizerSparse,
               sys.gpu.sparse_update_overhead *
                   cost_->GatherSeconds(3 * w.touched_bytes / g, sys.gpu));

  const uint64_t dense_bytes = w.dense_param_count * sizeof(float);
  tl.Charge(Phase::kAllReduce, cost_->AllReduceSeconds(dense_bytes));
  if (g > 1) tl.AddNvlinkBytes(2 * (g - 1) * dense_bytes / g * g);
  tl.ChargeGpu(Phase::kOptimizerDense,
               cost_->StreamSeconds(3 * dense_bytes, sys.gpu));
}

void StepAccountant::ChargeCacheStep(const BatchWork& w,
                                     uint64_t hit_lookup_bytes,
                                     uint64_t miss_lookup_bytes,
                                     uint64_t miss_touched_bytes,
                                     Timeline& tl) const {
  const SystemSpec& sys = cost_->system();
  const int g = std::max(1, sys.num_gpus);
  const uint64_t shard = w.batch_size / g;

  // Cache hits: local HBM gathers on each GPU's shard, through the cache
  // index (see kCacheIndirection above).
  tl.ChargeGpu(Phase::kEmbeddingForward,
               kCacheIndirection *
                   cost_->GatherSeconds(hit_lookup_bytes / g, sys.gpu));
  // Misses stall the batch: the CPU gathers them and ships the rows over
  // PCIe, then takes the gradient rows back after the backward pass.
  if (miss_lookup_bytes > 0) {
    tl.ChargeCpu(Phase::kEmbeddingForward,
                 cost_->GatherSeconds(miss_lookup_bytes, sys.cpu));
    tl.Charge(Phase::kCpuGpuTransfer,
              cost_->PcieTransferSeconds(miss_lookup_bytes / g));
    tl.Charge(Phase::kCpuGpuTransfer,
              cost_->PcieTransferSeconds(miss_lookup_bytes / g));
    tl.AddPcieBytes(2 * miss_lookup_bytes);
    tl.ChargeCpu(Phase::kEmbeddingBackward,
                 cost_->GatherSeconds(miss_lookup_bytes, sys.cpu));
    tl.ChargeCpu(Phase::kOptimizerSparse,
                 sys.cpu.sparse_update_overhead *
                     cost_->GatherSeconds(3 * miss_touched_bytes, sys.cpu));
  }

  tl.ChargeGpu(Phase::kMlpForward,
               cost_->DenseComputeSeconds(w.forward_flops / g, shard,
                                          sys.gpu));
  tl.ChargeGpu(Phase::kMlpBackward,
               cost_->DenseComputeSeconds(2 * w.forward_flops / g, shard,
                                          sys.gpu));

  // Cached rows: scatter + optimizer on the GPUs, gradients all-reduced
  // with the dense parameters (replicated cache, as in FAE's hot path).
  tl.ChargeGpu(Phase::kEmbeddingBackward,
               kCacheIndirection *
                   cost_->GatherSeconds(hit_lookup_bytes / g, sys.gpu));
  const uint64_t hit_touched_bytes =
      w.touched_bytes > miss_touched_bytes
          ? w.touched_bytes - miss_touched_bytes
          : 0;
  tl.ChargeGpu(Phase::kOptimizerSparse,
               sys.gpu.sparse_update_overhead *
                   cost_->GatherSeconds(3 * hit_touched_bytes, sys.gpu));
  const uint64_t grad_bytes =
      w.dense_param_count * sizeof(float) + hit_touched_bytes;
  tl.Charge(Phase::kAllReduce, cost_->AllReduceSeconds(grad_bytes));
  if (g > 1) tl.AddNvlinkBytes(2 * (g - 1) * grad_bytes / g * g);
  tl.ChargeGpu(
      Phase::kOptimizerDense,
      cost_->StreamSeconds(3 * w.dense_param_count * sizeof(float), sys.gpu));
}

StepAccountant::BaselineParts StepAccountant::ChargeStaleSkipStep(
    const BatchWork& w, const StaleSkipTraffic& t, Timeline& tl) const {
  BaselineParts parts;
  const SystemSpec& sys = cost_->system();
  const int g = std::max(1, sys.num_gpus);
  const int nodes = std::max(1, sys.num_nodes);
  const int world = g * nodes;

  // Forward path: identical to ChargeBaselineStep. Frozen rows are still
  // read — skipping only elides their *update*.
  const double emb_fwd =
      cost_->GatherSeconds(w.embedding_read_bytes / nodes, sys.cpu);
  tl.ChargeCpu(Phase::kEmbeddingForward, emb_fwd);
  parts.cpu += emb_fwd;
  if (nodes > 1) {
    const uint64_t remote =
        w.embedding_activation_bytes * (nodes - 1) / nodes;
    const double hop = cost_->NetworkTransferSeconds(remote / nodes);
    tl.Charge(Phase::kNetwork, hop);
    tl.Charge(Phase::kNetwork, hop);
    parts.serial += 2 * hop;
    tl.AddNetworkBytes(2 * remote);
  }

  const double xfer =
      cost_->PcieTransferSeconds(w.embedding_activation_bytes / world);
  tl.Charge(Phase::kCpuGpuTransfer, xfer);
  parts.serial += xfer;
  tl.AddPcieBytes(w.embedding_activation_bytes);

  const uint64_t shard = w.batch_size / world;
  const double mlp_fwd = cost_->DenseComputeSeconds(w.forward_flops / world,
                                                    shard, sys.gpu);
  tl.ChargeGpu(Phase::kMlpForward, mlp_fwd);
  const double mlp_bwd = cost_->DenseComputeSeconds(
      2 * w.forward_flops / world, shard, sys.gpu);
  tl.ChargeGpu(Phase::kMlpBackward, mlp_bwd);
  parts.gpu += mlp_fwd + mlp_bwd;

  // Gradients still cross back in full: the pooled gradient tensor is
  // batch-shaped, not row-count-shaped, and the skip decision is made on
  // the CPU after it arrives.
  tl.Charge(Phase::kCpuGpuTransfer, xfer);
  parts.serial += xfer;
  tl.AddPcieBytes(w.embedding_activation_bytes);

  // The win: scatter only the live rows' gradients, then run the sparse
  // optimizer over only the live touched bytes.
  const double emb_bwd =
      cost_->GatherSeconds(t.live_lookup_bytes / nodes, sys.cpu);
  tl.ChargeCpu(Phase::kEmbeddingBackward, emb_bwd);
  const double sparse_opt =
      sys.cpu.sparse_update_overhead *
      cost_->GatherSeconds(3 * t.live_touched_bytes / nodes, sys.cpu);
  tl.ChargeCpu(Phase::kOptimizerSparse, sparse_opt);
  parts.cpu += emb_bwd + sparse_opt;

  const uint64_t dense_bytes = w.dense_param_count * sizeof(float);
  const double allreduce = cost_->AllReduceSeconds(dense_bytes);
  tl.Charge(Phase::kAllReduce, allreduce);
  parts.serial += allreduce;
  if (g > 1) tl.AddNvlinkBytes(2 * (g - 1) * dense_bytes / g * g);
  if (nodes > 1) tl.AddNetworkBytes(2 * (nodes - 1) * dense_bytes / nodes);
  const double dense_opt = cost_->StreamSeconds(3 * dense_bytes, sys.gpu);
  tl.ChargeGpu(Phase::kOptimizerDense, dense_opt);
  parts.gpu += dense_opt;
  return parts;
}

StepAccountant::OracleCacheParts StepAccountant::ChargeOracleCacheStep(
    const BatchWork& w, const OracleCacheTraffic& t, Timeline& tl) const {
  OracleCacheParts parts;
  const SystemSpec& sys = cost_->system();
  const int g = std::max(1, sys.num_gpus);
  const int nodes = std::max(1, sys.num_nodes);
  const int world = g * nodes;
  const uint64_t shard = w.batch_size / world;

  // Hit lookups: HBM gathers through the cache index, sharded over GPUs.
  const double hit_fwd =
      kCacheIndirection *
      cost_->GatherSeconds(t.hit_lookup_bytes / world, sys.gpu);
  tl.ChargeGpu(Phase::kEmbeddingForward, hit_fwd);
  parts.gpu += hit_fwd;

  // Miss lookups follow the plain hybrid path: CPU gathers, pooled
  // activations over PCIe both ways scaled by the miss share of the
  // batch's lookup traffic, CPU scatter + sparse optimizer on the way
  // back. With a hit rate of 1 this whole block (the baseline's critical
  // path) vanishes — that is the cache's entire win.
  const uint64_t lookup_total = t.hit_lookup_bytes + t.miss_lookup_bytes;
  if (t.miss_lookup_bytes > 0) {
    const uint64_t miss_activation_bytes =
        w.embedding_activation_bytes * t.miss_lookup_bytes / lookup_total;
    const double miss_fwd =
        cost_->GatherSeconds(t.miss_lookup_bytes / nodes, sys.cpu);
    tl.ChargeCpu(Phase::kEmbeddingForward, miss_fwd);
    const double xfer =
        cost_->PcieTransferSeconds(miss_activation_bytes / world);
    tl.Charge(Phase::kCpuGpuTransfer, xfer);
    tl.Charge(Phase::kCpuGpuTransfer, xfer);
    tl.AddPcieBytes(2 * miss_activation_bytes);
    parts.serial += 2 * xfer;
    parts.transfer_bytes += 2 * miss_activation_bytes;
    const double miss_bwd =
        cost_->GatherSeconds(t.miss_lookup_bytes / nodes, sys.cpu);
    tl.ChargeCpu(Phase::kEmbeddingBackward, miss_bwd);
    const double miss_opt =
        sys.cpu.sparse_update_overhead *
        cost_->GatherSeconds(3 * t.miss_touched_bytes / nodes, sys.cpu);
    tl.ChargeCpu(Phase::kOptimizerSparse, miss_opt);
    parts.cpu += miss_fwd + miss_bwd + miss_opt;
  }

  // Dense network: identical to every other placement.
  const double mlp_fwd =
      cost_->DenseComputeSeconds(w.forward_flops / world, shard, sys.gpu);
  tl.ChargeGpu(Phase::kMlpForward, mlp_fwd);
  const double mlp_bwd = cost_->DenseComputeSeconds(
      2 * w.forward_flops / world, shard, sys.gpu);
  tl.ChargeGpu(Phase::kMlpBackward, mlp_bwd);
  parts.gpu += mlp_fwd + mlp_bwd;

  // Hit rows: scatter + sparse optimizer on the GPUs; their gradients ride
  // the dense all-reduce over NVLink (as in the FAE hot path).
  const double hit_bwd =
      kCacheIndirection *
      cost_->GatherSeconds(t.hit_lookup_bytes / world, sys.gpu);
  tl.ChargeGpu(Phase::kEmbeddingBackward, hit_bwd);
  const double hit_opt =
      sys.gpu.sparse_update_overhead *
      cost_->GatherSeconds(3 * t.hit_touched_bytes, sys.gpu);
  tl.ChargeGpu(Phase::kOptimizerSparse, hit_opt);
  parts.gpu += hit_bwd + hit_opt;

  const uint64_t grad_bytes =
      w.dense_param_count * sizeof(float) + t.hit_touched_bytes;
  const double allreduce = cost_->AllReduceSeconds(grad_bytes);
  tl.Charge(Phase::kAllReduce, allreduce);
  parts.serial += allreduce;
  if (g > 1) tl.AddNvlinkBytes(2 * (g - 1) * grad_bytes / g * g);
  if (nodes > 1) tl.AddNetworkBytes(2 * (nodes - 1) * grad_bytes / nodes);
  const double dense_opt = cost_->StreamSeconds(
      3 * w.dense_param_count * sizeof(float), sys.gpu);
  tl.ChargeGpu(Phase::kOptimizerDense, dense_opt);
  parts.gpu += dense_opt;

  // Cache DMA, each GPU's shard over its own PCIe link in parallel. Late
  // fetches and writebacks sit on the critical path (the batch waits);
  // timely prefetch targets otherwise-idle PCIe and is returned in its own
  // lane so the caller only pays what compute cannot hide.
  if (t.late_prefetch_bytes + t.writeback_bytes > 0) {
    const double sync = cost_->PcieTransferSeconds(
        (t.late_prefetch_bytes + t.writeback_bytes) / world);
    tl.Charge(Phase::kEmbeddingSync, sync);
    tl.AddPcieBytes(t.late_prefetch_bytes + t.writeback_bytes);
    parts.serial += sync;
    parts.transfer_bytes += t.late_prefetch_bytes + t.writeback_bytes;
  }
  if (t.timely_prefetch_bytes > 0) {
    const double dma =
        cost_->PcieTransferSeconds(t.timely_prefetch_bytes / world);
    tl.Charge(Phase::kEmbeddingSync, dma);
    tl.AddPcieBytes(t.timely_prefetch_bytes);
    parts.timely_dma = dma;
    parts.transfer_bytes += t.timely_prefetch_bytes;
  }
  return parts;
}

}  // namespace fae

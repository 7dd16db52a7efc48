#include "src/sim/platform.h"

#include <stdexcept>
#include <utility>

namespace gg::sim {

Platform::Platform(std::size_t gpu_count) {
  if (gpu_count == 0) throw std::invalid_argument("Platform: need at least one GPU");
  for (std::size_t i = 0; i < gpu_count; ++i) {
    DvfsTable core = geforce8800_core_table();
    DvfsTable mem = geforce8800_memory_table();
    const std::size_t core_low = core.lowest_level();
    const std::size_t mem_low = mem.lowest_level();
    gpus_.push_back(std::make_unique<GpuDevice>(queue_, GpuSpec{}, std::move(core),
                                                std::move(mem), core_low, mem_low));
  }
  for (auto& gpu : gpus_) {
    copy_engines_.push_back(std::make_unique<CopyEngine>(queue_, bus_, *gpu));
  }
  cpu_ = std::make_unique<CpuDevice>(queue_, CpuSpec{}, phenom2_table(), 0);
}

Platform::Platform(GpuSpec gpu_spec, DvfsTable gpu_core, DvfsTable gpu_mem,
                   std::size_t gpu_core_level, std::size_t gpu_mem_level, CpuSpec cpu_spec,
                   DvfsTable cpu_table, std::size_t cpu_level, BusSpec bus,
                   std::size_t gpu_count)
    : bus_(bus) {
  if (gpu_count == 0) throw std::invalid_argument("Platform: need at least one GPU");
  for (std::size_t i = 0; i < gpu_count; ++i) {
    gpus_.push_back(std::make_unique<GpuDevice>(queue_, gpu_spec, gpu_core, gpu_mem,
                                                gpu_core_level, gpu_mem_level));
  }
  for (auto& gpu : gpus_) {
    copy_engines_.push_back(std::make_unique<CopyEngine>(queue_, bus_, *gpu));
  }
  cpu_ = std::make_unique<CpuDevice>(queue_, cpu_spec, std::move(cpu_table), cpu_level);
}

EnergySnapshot Platform::snapshot() {
  EnergySnapshot s;
  s.time = queue_.now();
  for (auto& gpu : gpus_) s.gpu += gpu->energy();
  s.cpu = cpu_->energy();
  return s;
}

EnergyDelta Platform::delta(const EnergySnapshot& a, const EnergySnapshot& b) {
  return EnergyDelta{b.time - a.time, b.gpu - a.gpu, b.cpu - a.cpu};
}

FaultInjector& Platform::install_faults(const FaultConfig& config) {
  faults_ = std::make_unique<FaultInjector>(queue_, config);
  for (std::size_t i = 0; i < gpus_.size(); ++i) faults_->add_gpu(*gpus_[i], i);
  faults_->start();
  return *faults_;
}

void Platform::save(common::SnapshotWriter& w) {
  if (faults_ != nullptr) {
    throw common::SnapshotError("Platform::save: fault injector already installed");
  }
  queue_.save(w);
  w.u64(gpus_.size());
  for (auto& gpu : gpus_) gpu->save(w);
  cpu_->save(w);
  for (auto& engine : copy_engines_) engine->save(w);
}

void Platform::load(common::SnapshotReader& r) {
  if (faults_ != nullptr) {
    throw common::SnapshotError("Platform::load: fault injector already installed");
  }
  queue_.load(r);
  const std::uint64_t count = r.u64();
  if (count != gpus_.size()) {
    throw common::SnapshotError("Platform::load: GPU count mismatch");
  }
  for (auto& gpu : gpus_) gpu->load(r);
  cpu_->load(r);
  for (auto& engine : copy_engines_) engine->load(r);
}

}  // namespace gg::sim

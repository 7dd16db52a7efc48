#include "src/sim/cpu_device.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace gg::sim {

namespace {
constexpr double kUnitEpsilon = 1e-9;

void validate(const CpuWork& w, int cores) {
  if (!(w.units > 0.0)) throw std::invalid_argument("CpuWork: units must be > 0");
  if (w.ops_per_unit < 0.0 || w.overhead_per_unit < Seconds{0.0}) {
    throw std::invalid_argument("CpuWork: negative work component");
  }
  if (w.ops_per_unit == 0.0 && w.overhead_per_unit == Seconds{0.0}) {
    throw std::invalid_argument("CpuWork: task with zero work");
  }
  if (w.active_cores < 0 || w.active_cores > cores) {
    throw std::invalid_argument("CpuWork: active_cores out of range");
  }
}
}  // namespace

CpuDevice::CpuDevice(EventQueue& queue, CpuSpec spec, DvfsTable table,
                     std::size_t initial_level)
    : queue_(queue), spec_(spec), domain_("cpu", std::move(table), initial_level),
      ledger_{.last = queue.now()} {
  ledger_.energy.reset(queue.now());
}

CpuDevice CpuDevice::testbed_default(EventQueue& queue) {
  return CpuDevice{queue, CpuSpec{}, phenom2_table(), 0};
}

int CpuDevice::effective_cores(const CpuWork& w) const {
  return w.active_cores == 0 ? spec_.cores : w.active_cores;
}

Seconds CpuDevice::unit_time(const CpuWork& w) const {
  const double share = static_cast<double>(effective_cores(w)) / spec_.cores;
  const double rate = spec_.throughput(domain_.frequency()) * share;
  return w.overhead_per_unit + Seconds{w.ops_per_unit / rate};
}

Seconds CpuDevice::predict_duration(const CpuWork& work) const {
  validate(work, spec_.cores);
  return unit_time(work) * work.units;
}

double CpuDevice::utilization_now() const {
  if (active_) {
    return static_cast<double>(effective_cores(active_->work)) / spec_.cores;
  }
  if (spinning_) {
    // With the synchronous CUDA 3.2 stack the GPU-owner pthread busy-waits
    // and the idle OpenMP workers sit in active-wait barriers, so every core
    // reads 100 % — exactly the Section VII-A observation ("the CPU has a
    // utilization of 100% even when it is idling"), which defeats ondemand.
    return 1.0;
  }
  return 0.0;
}

Watts CpuDevice::power_now() const {
  const double f_norm = domain_.frequency() / domain_.table().peak();
  const double v_norm = domain_.voltage() / domain_.table().voltage(0);
  const double util_sum = utilization_now() * spec_.cores;
  return spec_.power(f_norm, v_norm, util_sum);
}

Watts CpuDevice::idle_power(std::size_t at_level) const {
  const double f_norm = domain_.table().frequency(at_level) / domain_.table().peak();
  const double v_norm = domain_.table().voltage(at_level) / domain_.table().voltage(0);
  return spec_.power(f_norm, v_norm, 0.0);
}

Watts CpuDevice::power_at(std::size_t at_level, double utilization) const {
  const double f_norm = domain_.table().frequency(at_level) / domain_.table().peak();
  const double v_norm = domain_.table().voltage(at_level) / domain_.table().voltage(0);
  return spec_.power(f_norm, v_norm, clamp_unit(utilization) * spec_.cores);
}

CpuDevice::Draw CpuDevice::draw() const {
  return Draw{power_now(), utilization_now(), !active_ && spinning_, active_.has_value(),
              active_ ? unit_time(active_->work) : Seconds{0.0}};
}

void CpuDevice::account() {
  const Seconds now = queue_.now();
  if (now - ledger_.last <= Seconds{0.0}) {
    ledger_.last = now;
    return;
  }
  const Draw d = draw();
  accrue(ledger_, now, d, counted(ledger_.counters, (now - ledger_.last).get(), d));
}

CpuActivityCounters CpuDevice::counters() {
  account();
  return ledger_.counters;
}

Joules CpuDevice::energy() {
  account();
  return ledger_.energy.energy();
}

Joules CpuDevice::spin_energy() {
  account();
  return ledger_.spin_energy;
}

void CpuDevice::submit(const CpuWork& work, CompletionCallback on_complete) {
  validate(work, spec_.cores);
  account();
  fifo_.push_back(Active{work, std::move(on_complete)});
  start_next_if_idle();
}

void CpuDevice::set_spinning(bool spinning) {
  if (spinning == spinning_) return;
  account();
  spinning_ = spinning;
}

void CpuDevice::start_next_if_idle() {
  if (active_ || fifo_.empty()) return;
  account();
  active_ = std::move(fifo_.front());
  fifo_.pop_front();
  ledger_.units_done = 0.0;
  schedule_completion();
}

void CpuDevice::schedule_completion() {
  completion_.cancel();
  const double remaining = std::max(0.0, active_->work.units - ledger_.units_done);
  const Seconds eta = unit_time(active_->work) * remaining;
  completion_ = queue_.schedule_in(eta, [this] { on_completion_event(); });
}

void CpuDevice::on_completion_event() {
  account();
  // Drift guard, but only while the residual eta can still advance the
  // clock; a sub-ulp remainder would reschedule at the same instant forever
  // (see GpuDevice::on_completion_event).
  if (ledger_.units_done < active_->work.units - kUnitEpsilon * active_->work.units) {
    const double remaining = active_->work.units - ledger_.units_done;
    const Seconds eta = unit_time(active_->work) * remaining;
    if ((queue_.now() + eta).get() > queue_.now().get()) {
      schedule_completion();
      return;
    }
  }
  CompletionCallback cb = std::move(active_->on_complete);
  active_.reset();
  ++tasks_completed_;
  start_next_if_idle();
  if (cb) cb();
}

void CpuDevice::set_level(std::size_t level) {
  account();
  if (domain_.set_level(level) && active_) schedule_completion();
}

void CpuDevice::save(common::SnapshotWriter& w) {
  if (active_.has_value() || !fifo_.empty() || spinning_) {
    throw common::SnapshotError("CpuDevice::save: device not quiescent");
  }
  account();  // bring every integral up to queue.now() first
  domain_.save(w);
  w.f64(ledger_.last.get());
  w.f64(ledger_.counters.util_integral);
  w.f64(ledger_.counters.busy_integral);
  w.f64(ledger_.counters.spin_integral);
  ledger_.energy.save(w);
  w.f64(ledger_.spin_energy.get());
  w.u64(tasks_completed_);
}

void CpuDevice::load(common::SnapshotReader& r) {
  if (active_.has_value() || !fifo_.empty() || spinning_) {
    throw common::SnapshotError("CpuDevice::load: device not quiescent");
  }
  domain_.load(r);
  ledger_.last = Seconds{r.f64()};
  ledger_.counters.util_integral = r.f64();
  ledger_.counters.busy_integral = r.f64();
  ledger_.counters.spin_integral = r.f64();
  ledger_.energy.load(r);
  ledger_.spin_energy = Joules{r.f64()};
  tasks_completed_ = r.u64();
}

}  // namespace gg::sim

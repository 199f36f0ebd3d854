#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/recycle.hpp"

namespace gcr::sim {
namespace {

/// Eagerly-destroyed top-level coroutine that drives one process body.
/// initial_suspend is suspend_always (the engine schedules the first resume);
/// final_suspend is suspend_never so the frame frees itself on completion.
/// Its frame comes from the recycler, like every Co frame.
struct RootTask {
  struct promise_type : recycle::Recycled {
    RootTask get_return_object() {
      return {std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() {
      GCR_CHECK_MSG(false,
                    "exception escaped a simulated process; application "
                    "coroutines must only exit normally or via kill()");
    }
  };
  std::coroutine_handle<promise_type> handle;
};

}  // namespace

// Defined outside the anonymous namespace so it can be declared a friend if
// ever needed; only used by Engine::spawn.
static RootTask root_driver(Engine& eng, ProcPtr proc, Co<void> body,
                            std::function<void(Proc&, ExitKind)> on_exit) {
  ExitKind kind = ExitKind::kFinished;
  if (!proc->killed()) {
    try {
      co_await std::move(body);
    } catch (const ProcessKilled&) {
      kind = ExitKind::kKilled;
    }
  } else {
    kind = ExitKind::kKilled;  // killed before the first instruction ran
  }
  eng.note_root_exit(*proc, kind);
  if (on_exit) on_exit(*proc, kind);
}

// ---------------------------------------------------------- event queues

// 4-ary heap: half the depth of a binary heap and all four children on one
// or two cache lines (24-byte PODs), which wins on the pop-heavy dispatch
// loop even though each level compares up to four children.
namespace {
constexpr std::size_t kHeapArity = 4;
}

void Engine::heap_push(const Event& e) {
  heap_.push_back(e);
  std::size_t i = heap_.size() - 1;
  // Hole-based sift-up: shift parents down, write the new event once.
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!event_before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Engine::heap_pop_top() {
  const Event last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Floyd's bottom-up deletion: walk the hole down along min-children to a
  // leaf comparing only siblings, then sift the displaced last element up
  // from there. `last` came off the bottom, so it almost never rises —
  // this skips the compare-against-last at every level of the plain
  // sift-down, the hottest loop in the engine.
  std::size_t hole = 0;
  while (true) {
    const std::size_t first = kHeapArity * hole + 1;
    if (first + kHeapArity <= n) {
      // All four children present: pairwise tree reduction keeps the
      // dependency chain at two compares instead of a three-long scan.
      const std::size_t a =
          first + (event_before(heap_[first + 1], heap_[first]) ? 1 : 0);
      const std::size_t b =
          first + 2 + (event_before(heap_[first + 3], heap_[first + 2]) ? 1 : 0);
      const std::size_t child = event_before(heap_[b], heap_[a]) ? b : a;
      heap_[hole] = heap_[child];
      hole = child;
    } else if (first < n) {
      std::size_t child = first;
      for (std::size_t c = first + 1; c < n; ++c) {
        if (event_before(heap_[c], heap_[child])) child = c;
      }
      heap_[hole] = heap_[child];
      hole = child;
    } else {
      break;
    }
  }
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kHeapArity;
    if (!event_before(last, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = last;
}

void Engine::grow_due(std::size_t capacity_pow2) {
  if (capacity_pow2 <= due_.size()) return;
  // Unwrap the ring into the bigger buffer in order.
  std::vector<Event> bigger(capacity_pow2);
  for (std::size_t k = 0; k < due_count_; ++k) {
    bigger[k] = due_[(due_head_ + k) & (due_.size() - 1)];
  }
  due_ = std::move(bigger);
  due_head_ = 0;
}

void Engine::due_push(const Event& e) {
  if (due_count_ == due_.size()) {
    grow_due(due_.empty() ? 64 : due_.size() * 2);
  }
  due_[(due_head_ + due_count_) & (due_.size() - 1)] = e;
  ++due_count_;
}

void Engine::schedule(Time t, EventKind kind, std::uint32_t slot,
                      std::uint32_t gen) {
  const Event e{t, next_key(kind), slot, gen};
  if (t == now_) {
    due_push(e);
  } else {
    wheel_insert(e);
  }
}

// -------------------------------------------------- hierarchical timing wheel

void Engine::wheel_place(std::uint32_t n) {
  const Event& e = wheel_pool_[n].ev;
  const std::uint64_t d = static_cast<std::uint64_t>(e.at) ^
                          static_cast<std::uint64_t>(wheel_cur_);
  int lvl = 0;
  if (d != 0) lvl = (63 - std::countl_zero(d)) / kWheelBits;
  const std::size_t idx = (static_cast<std::uint64_t>(e.at) >>
                           (kWheelBits * lvl)) &
                          (kWheelSlots - 1);
  WheelSlot& slot = wheel_slots_[static_cast<std::size_t>(lvl) * kWheelSlots +
                                 idx];
  wheel_pool_[n].next = kNilNode;
  if (slot.head == kNilNode) {
    slot.head = slot.tail = n;
    wheel_bmp_[static_cast<std::size_t>(lvl)] |= std::uint64_t{1} << idx;
  } else {
    wheel_pool_[slot.tail].next = n;
    slot.tail = n;
  }
}

void Engine::wheel_insert(const Event& e) {
  if (e.at < wheel_cur_) {
    // Behind the lazily-advanced cursor (but still >= now_): the wheel's
    // placement rule would wrap, so the heap absorbs it. Rare — only
    // possible in the gap a speculative peek opened past now_.
    heap_push(e);
    return;
  }
  const std::uint64_t d = static_cast<std::uint64_t>(e.at) ^
                          static_cast<std::uint64_t>(wheel_cur_);
  if ((d >> (kWheelBits * kWheelLevels)) != 0) {
    heap_push(e);  // beyond the wheel span: far-future overflow tier
    return;
  }
  std::uint32_t n;
  if (wheel_free_ != kNilNode) {
    n = wheel_free_;
    wheel_free_ = wheel_pool_[n].next;
    wheel_pool_[n].ev = e;
  } else {
    n = static_cast<std::uint32_t>(wheel_pool_.size());
    wheel_pool_.push_back(WheelNode{e, kNilNode});
  }
  wheel_place(n);
  ++wheel_count_;
}

void Engine::wheel_advance(Time t) {
  const std::uint64_t diff = static_cast<std::uint64_t>(wheel_cur_) ^
                             static_cast<std::uint64_t>(t);
  wheel_cur_ = t;
  if ((diff >> kWheelBits) == 0) return;  // same level-0 window
  int top = (63 - std::countl_zero(diff)) / kWheelBits;
  if (top > kWheelLevels - 1) top = kWheelLevels - 1;
  // Cascade-on-entry, highest level first: a level's entered slot is
  // re-scattered one level down before that lower level's own entered slot
  // is processed, so every event lands (in seq order) before dispatch can
  // reach it. Cascading relinks pooled nodes — no copies, no allocation.
  for (int lvl = top; lvl >= 1; --lvl) {
    const std::size_t idx = (static_cast<std::uint64_t>(t) >>
                             (kWheelBits * lvl)) &
                            (kWheelSlots - 1);
    if ((wheel_bmp_[static_cast<std::size_t>(lvl)] &
         (std::uint64_t{1} << idx)) == 0) {
      continue;
    }
    WheelSlot& slot =
        wheel_slots_[static_cast<std::size_t>(lvl) * kWheelSlots + idx];
    std::uint32_t n = slot.head;
    slot.head = slot.tail = kNilNode;
    wheel_bmp_[static_cast<std::size_t>(lvl)] &= ~(std::uint64_t{1} << idx);
    while (n != kNilNode) {
      const std::uint32_t next = wheel_pool_[n].next;
      // The target is strictly below lvl (the entered slot's bucket now
      // matches the cursor at lvl), so re-placement never revisits this
      // chain and never overflows to the heap.
      wheel_place(n);
      n = next;
    }
  }
  if ((diff >> (kWheelBits * (kWheelLevels - 1))) != 0) {
    // The cursor entered a new top-level window, so overflow events parked
    // beyond the old span may now fit: drain them in one batch here rather
    // than testing span membership per entry on the dispatch path.
    promote_overflow();
  }
}

void Engine::promote_overflow() {
  // Same-timestamp safety: an event can only reach the wheel while a
  // same-time sibling sits in the heap if the sibling entered the heap
  // beyond-span and the wheel insert happened within-span — but the cursor
  // advance that changed the span boundary ran this promotion first, so the
  // heap (popped in (at, seq) order) always lands before later inserts and
  // slot chains stay seq-sorted.
  while (!heap_.empty()) {
    const Event top = heap_.front();
    if (top.at < wheel_cur_) break;  // behind-cursor overflow stays heaped
    const std::uint64_t d = static_cast<std::uint64_t>(top.at) ^
                            static_cast<std::uint64_t>(wheel_cur_);
    if ((d >> (kWheelBits * kWheelLevels)) != 0) break;  // still beyond span
    heap_pop_top();
    wheel_insert(top);
  }
}

auto Engine::wheel_peek(Time bound) -> const Event* {
  // Minimum-slot argument (used by both return paths below): within a
  // level every event shares the cursor's digits above that level (inserts
  // match the cursor at insert time, and the cursor only ever changes its
  // digit at the lowest occupied level, whose entered slot is cascaded), so
  // slots at one level are totally ordered by index and any event at a
  // higher level exceeds the cursor's digit there. Hence every event in the
  // lowest occupied slot of the lowest occupied level precedes every other
  // wheel event.
  while (wheel_count_ != 0) {
    if (wheel_bmp_[0] != 0) {
      // Level-0 slots hold one exact nanosecond each, chained in seq
      // order, so the lowest occupied head is the wheel's true minimum.
      const int s = std::countr_zero(wheel_bmp_[0]);
      peek_lvl_ = 0;
      peek_slot_ = static_cast<std::size_t>(s);
      const Event& front = wheel_pool_[wheel_slots_[peek_slot_].head].ev;
      return front.at <= bound ? &front : nullptr;
    }
    int lvl = 1;
    while (wheel_bmp_[static_cast<std::size_t>(lvl)] == 0) ++lvl;
    const int s =
        std::countr_zero(wheel_bmp_[static_cast<std::size_t>(lvl)]);
    const std::size_t slot_idx =
        static_cast<std::size_t>(lvl) * kWheelSlots +
        static_cast<std::size_t>(s);
    const WheelSlot& slot = wheel_slots_[slot_idx];
    if (slot.head == slot.tail) {
      // A single-event chain in the minimum slot IS the wheel minimum: pop
      // it from right here instead of cascading it one level at a time down
      // to level 0 (which costs a bitmap walk + relink per level and made
      // sparse far-future populations ~10x slower than the dense rows).
      peek_lvl_ = lvl;
      peek_slot_ = slot_idx;
      const Event& front = wheel_pool_[slot.head].ev;
      return front.at <= bound ? &front : nullptr;
    }
    const int shift = kWheelBits * (lvl + 1);
    const std::uint64_t base = static_cast<std::uint64_t>(wheel_cur_) >>
                               shift << shift;
    const Time slot_start = static_cast<Time>(
        base | (static_cast<std::uint64_t>(s) << (kWheelBits * lvl)));
    if (slot_start > bound) return nullptr;  // min is certainly > bound
    wheel_advance(slot_start);
  }
  return nullptr;
}

void Engine::wheel_pop_front() {
  WheelSlot& slot = wheel_slots_[peek_slot_];
  const std::uint32_t n = slot.head;
  slot.head = wheel_pool_[n].next;
  if (slot.head == kNilNode) {
    slot.tail = kNilNode;
    wheel_bmp_[static_cast<std::size_t>(peek_lvl_)] &=
        ~(std::uint64_t{1} << (peek_slot_ & (kWheelSlots - 1)));
  }
  wheel_pool_[n].next = wheel_free_;
  wheel_free_ = n;
  --wheel_count_;
}

Time Engine::wheel_lower_bound() const {
  if (wheel_count_ == 0) return kTimeMax;
  if (wheel_bmp_[0] != 0) {
    const int s = std::countr_zero(wheel_bmp_[0]);
    return wheel_pool_[wheel_slots_[static_cast<std::size_t>(s)].head].ev.at;
  }
  int lvl = 1;
  while (wheel_bmp_[static_cast<std::size_t>(lvl)] == 0) ++lvl;
  const int s = std::countr_zero(wheel_bmp_[static_cast<std::size_t>(lvl)]);
  const int shift = kWheelBits * (lvl + 1);
  const std::uint64_t base = static_cast<std::uint64_t>(wheel_cur_) >> shift
                             << shift;
  return static_cast<Time>(
      base | (static_cast<std::uint64_t>(s) << (kWheelBits * lvl)));
}

bool Engine::pop_next(Time until, Event& out) {
  // Candidate from the O(1) peeks first (due front, heap top), then ask the
  // wheel for anything earlier. Bounding the wheel peek by the candidate
  // keeps cascades from running past the next dispatch, which in turn
  // guarantees the cursor never overtakes an event we are about to execute.
  const Event* cand = nullptr;
  bool cand_due = false;
  if (due_count_ != 0) {
    cand = &due_[due_head_];
    cand_due = true;
  }
  if (!heap_.empty() &&
      (cand == nullptr || event_before(heap_.front(), *cand))) {
    cand = &heap_.front();
    cand_due = false;
  }
  Time bound = until;
  if (cand != nullptr && cand->at < bound) bound = cand->at;
  const Event* w = wheel_peek(bound);
  const bool take_wheel =
      w != nullptr && (cand == nullptr || event_before(*w, *cand));
  const Event* best = take_wheel ? w : cand;
  if (best == nullptr || best->at > until) return false;
  out = *best;
  if (take_wheel) {
    wheel_pop_front();
  } else if (cand_due) {
    due_head_ = (due_head_ + 1) & (due_.size() - 1);
    --due_count_;
  } else {
    heap_pop_top();
  }
  return true;
}

void Engine::reserve(std::size_t events, std::size_t waiters) {
  heap_.reserve(events);
  // The due ring must also cover `events`: a same-timestamp burst (e.g. a
  // Trigger broadcast fanout) routes every resume through it.
  grow_due(std::bit_ceil(std::max<std::size_t>(events, 64)));
  // One shared node arena serves every wheel slot, so pre-sizing it by the
  // workload's concurrent pending events makes the wheel allocation-free
  // regardless of how those events distribute across slots.
  wheel_pool_.reserve(events);
  waiter_pool_.reserve(waiters);
  callback_pool_.reserve(events);
  callback_free_.reserve(events);
}

// ----------------------------------------------------------- waiter pool

WaiterHandle Engine::alloc_waiter(std::coroutine_handle<> h, Proc* proc) {
  std::uint32_t slot;
  if (waiter_free_head_ != WaiterHandle::kNullSlot) {
    slot = waiter_free_head_;
    waiter_free_head_ = waiter_pool_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(waiter_pool_.size());
    waiter_pool_.emplace_back();
  }
  WaiterSlot& s = waiter_pool_[slot];
  s.handle = h;
  s.proc = proc;
  s.fired = false;
  return WaiterHandle{slot, s.gen};
}

void Engine::release_waiter(std::uint32_t slot) {
  WaiterSlot& s = waiter_pool_[slot];
  ++s.gen;  // invalidate every outstanding handle to this slot
  s.handle = nullptr;
  s.proc = nullptr;
  s.next_free = waiter_free_head_;
  waiter_free_head_ = slot;
}

// -------------------------------------------------------------- scheduling

void Engine::call_at(Time t, SmallFn fn) {
  GCR_ASSERT(t >= now_);
  std::uint32_t slot;
  if (!callback_free_.empty()) {
    slot = callback_free_.back();
    callback_free_.pop_back();
    callback_pool_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(callback_pool_.size());
    callback_pool_.push_back(std::move(fn));
  }
  schedule(t, kCallback, slot, 0);
}

WaiterHandle Engine::suspend_current(std::coroutine_handle<> h) {
  const WaiterHandle w = alloc_waiter(h, current_);
  if (current_) current_->active_wait_ = w;
  return w;
}

bool Engine::fire(WaiterHandle w) {
  if (!waiter_live(w)) return false;
  waiter_pool_[w.slot].fired = true;
  schedule(now_, kResume, w.slot, w.gen);  // always O(1): same-time ring
  return true;
}

void Engine::fire_at(Time t, WaiterHandle w) {
  GCR_ASSERT(t >= now_);
  GCR_ASSERT(w.slot < waiter_pool_.size());
  schedule(t, kTimer, w.slot, w.gen);
}

// ------------------------------------------------------- process lifecycle

ProcPtr Engine::spawn(std::string name, Co<void> body,
                      std::function<void(Proc&, ExitKind)> on_exit) {
  auto proc = std::make_shared<Proc>(next_pid_++, std::move(name));
  ++live_processes_;
  RootTask root =
      root_driver(*this, proc, std::move(body), std::move(on_exit));
  const WaiterHandle w = alloc_waiter(root.handle, proc.get());
  proc->active_wait_ = w;
  fire_at(now_, w);
  return proc;
}

void Engine::kill(Proc& proc) {
  GCR_CHECK_MSG(&proc != current_, "a process must not kill itself");
  if (proc.killed_ || !proc.alive_) return;
  proc.killed_ = true;
  // Claims the currently-armed waiter unless another source already did (a
  // stale or claimed handle makes fire() a no-op). A live process is always
  // either running (excluded above) or suspended with an active wait — the
  // spawn start waiter covers the killed-before-start case.
  fire(proc.active_wait_);
}

void Engine::note_root_exit(Proc& proc, ExitKind kind) {
  (void)kind;
  proc.alive_ = false;
  proc.active_wait_ = WaiterHandle{};
  GCR_ASSERT(live_processes_ > 0);
  --live_processes_;
}

// ---------------------------------------------------------------- dispatch

void Engine::resume_slot(std::uint32_t slot) {
  WaiterSlot& s = waiter_pool_[slot];
  GCR_ASSERT(s.fired);
  const std::coroutine_handle<> h = s.handle;
  Proc* const proc = s.proc;
  if (proc && proc->active_wait_ == WaiterHandle{slot, s.gen}) {
    proc->active_wait_ = WaiterHandle{};
  }
  // Recycle before resuming: outstanding handles are invalidated by the
  // generation bump, and an immediate re-suspension typically gets this
  // same (cache-hot) slot back off the free list.
  release_waiter(slot);
  Proc* const prev = current_;
  current_ = proc;
  h.resume();
  current_ = prev;
}

void Engine::dispatch(const Event& ev) {
  switch (static_cast<EventKind>(ev.key & 3)) {
    case kCallback: {
      // Move out and free the slot first: the callback may re-enter
      // call_at and grow or reuse the pool.
      SmallFn fn = std::move(callback_pool_[ev.slot]);
      callback_free_.push_back(ev.slot);
      fn();
      return;
    }
    case kTimer: {
      WaiterSlot& s = waiter_pool_[ev.slot];
      if (s.gen != ev.gen || s.fired) return;  // cancelled or claimed
      s.fired = true;
      resume_slot(ev.slot);
      return;
    }
    case kResume: {
      // The claim (fired=true) pins the slot until this event runs, so the
      // generation must still match.
      GCR_ASSERT(waiter_pool_[ev.slot].gen == ev.gen);
      resume_slot(ev.slot);
      return;
    }
  }
}

std::uint64_t Engine::run(Time until) {
  GCR_ASSERT(until >= now_);  // the clock never moves backwards
  std::uint64_t processed = 0;
  Event ev;
  while (pop_next(until, ev)) {
    GCR_ASSERT(ev.at >= now_);
    now_ = ev.at;
    dispatch(ev);
    ++processed;
    ++events_processed_;
  }
  if (idle() && now_ < until && until != kTimeMax) now_ = until;
  return processed;
}

std::uint64_t Engine::run_while(const std::function<bool()>& keep_going) {
  std::uint64_t processed = 0;
  Event ev;
  // Same predicate order as run(): emptiness first, keep_going second, so
  // the predicate is never consulted once the queue has drained.
  while (!idle() && keep_going() && pop_next(kTimeMax, ev)) {
    GCR_ASSERT(ev.at >= now_);
    now_ = ev.at;
    dispatch(ev);
    ++processed;
    ++events_processed_;
  }
  return processed;
}

Time Engine::next_event_time() {
  Time best = kTimeMax;
  if (due_count_ != 0) best = due_[due_head_].at;
  if (!heap_.empty() && heap_.front().at < best) best = heap_.front().at;
  // Bounding by the due/heap minimum keeps the cascade work no larger than
  // the next pop would do anyway; a nullptr answer proves the wheel's
  // minimum is later than `best`, so `best` is already exact.
  if (const Event* w = wheel_peek(best); w != nullptr && w->at < best) {
    best = w->at;
  }
  return best;
}

}  // namespace gcr::sim

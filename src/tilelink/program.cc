#include "tilelink/program.h"

#include <sstream>
#include <string>
#include <utility>

#include "sim/trace.h"

namespace tilelink::tl {

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

TileProgramBuilder& TileProgramBuilder::Add(Op op) {
  Stmt s;
  s.op = std::move(op);
  program_.stmts.push_back(std::move(s));
  return *this;
}

TileProgramBuilder& TileProgramBuilder::For(
    const std::string& var, std::function<int64_t(const Env&)> trip_count,
    const std::function<void(TileProgramBuilder&)>& build_body) {
  TL_CHECK_MSG(depth_ < 4, "loop nesting deeper than 4 is not supported");
  TileProgramBuilder body_builder(depth_ + 1);
  build_body(body_builder);
  auto loop = std::make_shared<Loop>();
  loop->var = var;
  loop->depth = depth_;
  loop->trip_count = std::move(trip_count);
  loop->body = std::move(body_builder.program_.stmts);
  Stmt s;
  s.loop = std::move(loop);
  program_.stmts.push_back(std::move(s));
  return *this;
}

TileProgramBuilder& TileProgramBuilder::Scratch(
    std::function<std::shared_ptr<void>(const Env&)> factory) {
  program_.scratch_factory = std::move(factory);
  return *this;
}

BlockProgram TileProgramBuilder::Build() { return std::move(program_); }

// ---------------------------------------------------------------------------
// Verifier (§4.2)
// ---------------------------------------------------------------------------
namespace {

bool IsWait(OpKind k) {
  return k == OpKind::kConsumerWait || k == OpKind::kPeerWait;
}
bool IsNotify(OpKind k) {
  return k == OpKind::kProducerNotify || k == OpKind::kPeerNotify;
}
bool WritesData(OpKind k) {
  return k == OpKind::kStore || k == OpKind::kPushData ||
         k == OpKind::kPullData || k == OpKind::kMma ||
         k == OpKind::kElementwise;
}

// Walks a statement list. `acquired` / `wrote` carry dominance facts from
// enclosing scopes; facts established inside a loop body hold for later
// statements of that body but conservatively do NOT escape the loop (its
// trip count may be zero).
void VerifyStmts(const std::vector<Stmt>& stmts, bool acquired, bool wrote,
                 const std::string& role) {
  bool acq = acquired;
  bool wr = wrote;
  for (const Stmt& s : stmts) {
    if (s.loop) {
      VerifyStmts(s.loop->body, acq, wr, role);
      continue;
    }
    const Op& op = *s.op;
    if (IsWait(op.kind)) {
      acq = true;
      continue;
    }
    if (op.kind == OpKind::kLoad && op.requires_acquire && !acq) {
      throw VerifyError("memory-consistency verification failed in '" + role +
                        "': acquire-load '" + op.label +
                        "' is not dominated by a consumer/peer wait");
    }
    if (IsNotify(op.kind) && !wr) {
      throw VerifyError("memory-consistency verification failed in '" + role +
                        "': notify '" + op.label +
                        "' has no preceding store/push to release");
    }
    if (WritesData(op.kind)) {
      wr = true;
    }
  }
}

// ---------------------------------------------------------------------------
// Unsafe reordering pass (fault injection for §4.2 tests)
// ---------------------------------------------------------------------------

// Reorders acquire-loads ahead of the waits that guard them — the exact
// hazard a pipeliner unaware of primitive data dependencies would create
// (§4.2). Equivalently (and robust to loads living inside inner loops), each
// wait op sinks to the end of its statement list, so every load it guarded
// now executes first.
void UnsafeHoistLoads(std::vector<Stmt>& stmts) {
  for (Stmt& s : stmts) {
    if (s.loop) UnsafeHoistLoads(s.loop->body);
  }
  std::vector<Stmt> reordered;
  std::vector<Stmt> sunk_waits;
  reordered.reserve(stmts.size());
  for (Stmt& s : stmts) {
    if (s.op && IsWait(s.op->kind)) {
      sunk_waits.push_back(std::move(s));
    } else {
      reordered.push_back(std::move(s));
    }
  }
  for (Stmt& w : sunk_waits) reordered.push_back(std::move(w));
  stmts = std::move(reordered);
}

// ---------------------------------------------------------------------------
// Listing codegen (PTX-like, tile granularity)
// ---------------------------------------------------------------------------

const char* Mnemonic(const Op& op) {
  switch (op.kind) {
    case OpKind::kNop:
      return "nop";
    case OpKind::kLoad:
      return op.requires_acquire ? "ld.global.acquire.b128"
                                 : "ld.global.b128";
    case OpKind::kStore:
      return "st.global.b128";
    case OpKind::kMma:
      return "mma.sync.aligned";
    case OpKind::kElementwise:
      return "elementwise";
    case OpKind::kPushData:
      return op.async_dma ? "cp.async.bulk.remote   // tile_push_data (dma)"
                          : "st.global.remote   // tile_push_data";
    case OpKind::kPullData:
      return "ld.global.remote   // tile_pull_data";
    case OpKind::kConsumerWait:
      return "spin.ld.global.acquire   // consumer_tile_wait";
    case OpKind::kProducerNotify:
      return "red.release.global.add   // producer_tile_notify";
    case OpKind::kPeerWait:
      return "spin.ld.global.acquire   // peer_tile_wait";
    case OpKind::kPeerNotify:
      return "red.release.global.add   // peer_tile_notify";
  }
  return "?";
}

void EmitStmts(const std::vector<Stmt>& stmts, int indent,
               std::ostringstream& os) {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  for (const Stmt& s : stmts) {
    if (s.loop) {
      os << pad << "for " << s.loop->var << ":\n";
      EmitStmts(s.loop->body, indent + 1, os);
      continue;
    }
    os << pad << Mnemonic(*s.op);
    if (!s.op->label.empty()) os << "    ; " << s.op->label;
    os << "\n";
    if (s.op->notify_after) {
      os << pad
         << "red.release.global.add   // peer_tile_notify (on completion)\n";
    }
  }
}

std::string EmitListing(const FusedKernelSpec& spec,
                        const CompilerOptions& options) {
  std::ostringstream os;
  os << "// tilelink kernel: " << spec.name << "\n";
  os << "// pipeline="
     << (options.pipeline == PipelineMode::kSafe ? "safe" : "none")
     << " unsafe_reorder=" << (options.unsafe_reorder ? 1 : 0) << "\n";
  int base = 0;
  for (const Role& role : spec.roles) {
    os << ".role " << role.name << "  (blocks " << base << ".."
       << base + role.blocks - 1 << ")\n";
    EmitStmts(role.program.stmts, 1, os);
    base += role.blocks;
  }
  return os.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// Compile
// ---------------------------------------------------------------------------

CompiledKernel Compiler::Compile(FusedKernelSpec spec) const {
  TL_CHECK_GT(spec.total_blocks(), 0);
  if (options_.verify && !options_.unsafe_reorder) {
    for (const Role& role : spec.roles) {
      VerifyStmts(role.program.stmts, false, false,
                  spec.name + "/" + role.name);
    }
  }
  if (options_.unsafe_reorder) {
    for (Role& role : spec.roles) {
      UnsafeHoistLoads(role.program.stmts);
    }
  }
  CompiledKernel kernel;
  kernel.listing_ = EmitListing(spec, options_);
  kernel.spec_ = std::move(spec);
  kernel.options_ = options_;
  return kernel;
}

// ---------------------------------------------------------------------------
// Interpreter: executes a compiled block program as a block coroutine
// ---------------------------------------------------------------------------
namespace {

struct ExecCtx {
  rt::World* world;
  std::shared_ptr<const BlockChannel> bc;
  sim::CostModel cost;
  // Tracing (null/-1 when the world has no recorder): per-block track on
  // the rank's trace process, spans per costed op.
  sim::TraceRecorder* tr = nullptr;
  int pid = -1;
  int tid = 0;
};

// Checker registration honouring DataSpec strided runs: a column strip of a
// row-major tensor audits one run per covered row instead of the flat
// [lo, hi) span (which overlaps the neighbouring strips' bytes and would
// flag false races between disjoint strips).
void CheckReadRuns(rt::World& world, const DataSpec& d, sim::TimeNs t,
                   const std::string& label) {
  if (d.read_buf == nullptr || !world.checker().enabled()) return;
  if (d.read_pitch <= 0) {
    world.checker().CheckRead(d.read_buf, d.read_lo, d.read_hi, t, label);
    return;
  }
  for (int64_t lo = d.read_lo; lo < d.read_hi; lo += d.read_pitch) {
    world.checker().CheckRead(d.read_buf, lo,
                              std::min(lo + d.read_run, d.read_hi), t, label);
  }
}

void RecordWriteRuns(rt::World& world, const DataSpec& d, sim::TimeNs start,
                     sim::TimeNs end, const std::string& label) {
  if (d.write_buf == nullptr || !world.checker().enabled()) return;
  if (d.write_pitch <= 0) {
    world.checker().RecordWrite(d.write_buf, d.write_lo, d.write_hi, start,
                                end, label);
    return;
  }
  for (int64_t lo = d.write_lo; lo < d.write_hi; lo += d.write_pitch) {
    world.checker().RecordWrite(d.write_buf, lo,
                                std::min(lo + d.write_run, d.write_hi), start,
                                end, label);
  }
}

void FireNotify(const ExecCtx& ec, const NotifySpec& spec) {
  for (const NotifyEntry& e : spec.entries) {
    for (int target : e.targets) {
      ec.bc->set(e.space, target)->AddFrom(ec.bc->rank, e.channel, e.inc);
    }
  }
}

// Span of a transfer that started at `start` and has just landed.
void TraceTransfer(const ExecCtx& ec, const std::string& label,
                   sim::TimeNs start, const DataSpec& d, bool dma) {
  if (ec.tr == nullptr) return;
  std::vector<sim::TraceArg> args = {
      sim::TraceArg::Num("bytes", static_cast<double>(d.bytes)),
      sim::TraceArg::Num("src", d.src_rank),
      sim::TraceArg::Num("dst", d.dst_rank)};
  if (dma) args.push_back(sim::TraceArg::Str("dma", "1"));
  ec.tr->AddSpan(ec.pid, ec.tid, label, start, ec.world->sim().Now(),
                 sim::kCatComm, std::move(args));
}

// Async DMA push: runs as its own root coroutine; the issuing block has
// already moved on (its functional payload was captured at issue time, when
// the data was handed to the DMA queue). Release semantics: notify_after
// fires only once the transfer has landed.
sim::Coro AsyncPush(ExecCtx ec, DataSpec d, NotifySpec after,
                    std::string label) {
  rt::World& world = *ec.world;
  co_await world.device(d.src_rank).copy_engines().Acquire();
  sim::ResourceLease lease(world.device(d.src_rank).copy_engines(), 1);
  co_await sim::Delay{world.spec().dma_setup_latency};
  const sim::TimeNs start = world.sim().Now();
  const uint64_t wt =
      d.write_buf != nullptr ? world.checker().OpenWrite(start) : 0;
  co_await world.Transfer(d.src_rank, d.dst_rank,
                          static_cast<uint64_t>(static_cast<double>(d.bytes) /
                                                world.spec().dma_efficiency));
  RecordWriteRuns(world, d, start, world.sim().Now(), label);
  world.checker().CloseWrite(wt);
  TraceTransfer(ec, label, start, d, /*dma=*/true);
  FireNotify(ec, after);
}

// Runs one block's program as a single coroutine. Ops execute inline and
// only the real suspension points (delays, flag waits, transfers) suspend
// it, so a block allocates one frame however many ops and loop iterations
// it runs. A loop's trip count is evaluated once on entry; env.loop[depth]
// holds its iteration and reads 0 again once the loop is done.
sim::Coro RunBlock(ExecCtx ec, Env env, const BlockProgram* program,
                   std::string role_label) {
  rt::World& world = *ec.world;
  const sim::TimeNs block_t0 = world.sim().Now();
  std::shared_ptr<void> scratch;
  if (program->scratch_factory) {
    scratch = program->scratch_factory(env);
    env.scratch = scratch.get();
  }
  co_await sim::Delay{ec.cost.BlockPrologue()};

  // stack[0] walks the top level and stack[d + 1] the body of the open
  // depth-d loop (TileProgramBuilder nests at most 4 deep).
  struct Level {
    const std::vector<Stmt>* stmts;
    size_t next;  // next statement to run
    int64_t trips;
  };
  std::array<Level, 5> stack{};
  stack[0] = Level{&program->stmts, 0, 0};
  size_t top = 0;
  while (true) {
    Level& lv = stack[top];
    if (lv.next == lv.stmts->size()) {
      if (top == 0) break;
      int64_t& iv = env.loop[top - 1];
      if (++iv < lv.trips) {
        lv.next = 0;
      } else {
        iv = 0;
        --top;
      }
      continue;
    }
    const Stmt& s = (*lv.stmts)[lv.next++];
    if (s.loop) {
      TL_CHECK_EQ(static_cast<size_t>(s.loop->depth), top);
      const int64_t trips = s.loop->trip_count(env);
      env.loop[top] = 0;
      if (trips > 0) stack[++top] = Level{&s.loop->body, 0, trips};
      continue;
    }
    const Op& op = *s.op;
    switch (op.kind) {
      case OpKind::kNop:
        break;
      case OpKind::kConsumerWait:
      case OpKind::kPeerWait: {
        const WaitSpec spec = op.wait(env);
        rt::SignalSet* sig = ec.bc->local(spec.space);
        for (const ChannelWait& w : spec.waits) {
          co_await sig->Wait(w.channel, w.threshold);
        }
        break;
      }
      case OpKind::kProducerNotify:
      case OpKind::kPeerNotify:
        // Release: all prior ops of this block already completed (the
        // coroutine is sequential); remote visibility latency is modeled
        // inside SignalSet::AddFrom.
        FireNotify(ec, op.notify(env));
        break;
      case OpKind::kLoad:
      case OpKind::kStore:
      case OpKind::kMma:
      case OpKind::kElementwise: {
        // A store's payload runs before its cost, every other op's after.
        // Load/store DataSpecs only feed the checker: built only when on.
        const bool store = op.kind == OpKind::kStore;
        if (store && op.math && world.functional()) op.math(env);
        if (op.data && world.checker().enabled()) {
          const sim::TimeNs now = world.sim().Now();
          if (op.kind == OpKind::kLoad) {
            CheckReadRuns(world, op.data(env), now, op.label);
          } else if (store) {
            RecordWriteRuns(world, op.data(env), now, now, op.label);
          }
        }
        if (op.cost) {
          const sim::TimeNs t0 = world.sim().Now();
          co_await sim::Delay{op.cost(env, ec.cost)};
          if (ec.tr != nullptr) {
            ec.tr->AddSpan(ec.pid, ec.tid, op.label, t0, world.sim().Now(),
                           sim::kCatCompute);
          }
        }
        if (!store && op.math && world.functional()) op.math(env);
        break;
      }
      case OpKind::kPushData:
      case OpKind::kPullData: {
        TL_CHECK_MSG(static_cast<bool>(op.data),
                     "push/pull op '" << op.label << "' lacks a DataSpec");
        const DataSpec d = op.data(env);
        if (op.async_dma) {
          // Hand off to a copy engine and continue; the payload value is
          // captured now (it enters the DMA queue), the completion notify
          // fires with release semantics when the data lands.
          NotifySpec after;
          if (op.notify_after) after = op.notify_after(env);
          if (op.math && world.functional()) op.math(env);
          world.sim().Spawn(AsyncPush(ec, d, std::move(after), op.label),
                            "async_push");
          break;
        }
        const sim::TimeNs start = world.sim().Now();
        CheckReadRuns(world, d, start, op.label);
        const uint64_t wt =
            d.write_buf != nullptr ? world.checker().OpenWrite(start) : 0;
        co_await world.Transfer(d.src_rank, d.dst_rank, d.bytes);
        if (op.math && world.functional()) op.math(env);
        RecordWriteRuns(world, d, start, world.sim().Now(), op.label);
        world.checker().CloseWrite(wt);
        TraceTransfer(ec, op.label, start, d, /*dma=*/false);
        if (op.notify_after) FireNotify(ec, op.notify_after(env));
        break;
      }
    }
  }

  co_await sim::Delay{ec.cost.BlockEpilogue()};
  if (ec.tr != nullptr) {
    // Structural span: SM-resident time of this role block (kCatTask so the
    // profiler's critical path walks the leaf op spans instead).
    ec.tr->AddSpan(ec.pid, ec.tid, role_label, block_t0, world.sim().Now(),
                   sim::kCatTask,
                   {sim::TraceArg::Num("block", env.block_id)});
  }
}

}  // namespace

std::shared_ptr<rt::KernelState> CompiledKernel::Launch(
    rt::RankCtx& ctx, rt::Stream& stream, const BlockChannel& bc) const {
  const int grid = spec_.total_blocks();
  // Copies shared by every block coroutine of this launch.
  auto spec_copy = std::make_shared<FusedKernelSpec>(spec_);
  auto bc_copy = std::make_shared<const BlockChannel>(bc);
  rt::World* world = ctx.world;
  auto body = [spec_copy, bc_copy, world](rt::BlockCtx bctx) -> sim::Coro {
    ExecCtx ec{world, bc_copy, sim::CostModel(bctx.dev->spec())};
    int base = 0;
    const Role* role = nullptr;
    int role_block = 0;
    for (const Role& r : spec_copy->roles) {
      if (bctx.block_id < base + r.blocks) {
        role = &r;
        role_block = bctx.block_id - base;
        break;
      }
      base += r.blocks;
    }
    TL_CHECK(role != nullptr);
    if (sim::TraceRecorder* tr = world->trace()) {
      ec.tr = tr;
      ec.pid = world->trace_pid(bc_copy->rank);
      ec.tid = tr->Track(ec.pid, spec_copy->name + "/" + role->name + ".b" +
                                     std::to_string(role_block));
    }
    Env env;
    env.rank = bc_copy->rank;
    env.grid = role->blocks;
    env.block_id = role_block;
    return RunBlock(std::move(ec), env, &role->program,
                    spec_copy->name + "/" + role->name);
  };
  return stream.LaunchKernel(grid, body, spec_.name);
}

}  // namespace tilelink::tl

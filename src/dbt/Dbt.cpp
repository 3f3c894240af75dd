//===- Dbt.cpp - Dynamic binary translator --------------------------------------===//

#include "dbt/Dbt.h"

#include "cfc/DataFlow.h"
#include "cfg/Cfg.h"
#include "dbt/CodeBuilder.h"
#include "isa/Disasm.h"
#include "support/Diagnostics.h"
#include "support/Format.h"
#include "vm/Layout.h"
#include "vm/Loader.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <tuple>

using namespace cfed;

namespace {
/// Largest number of guest instructions fused into one dynamic block.
constexpr size_t MaxBlockInsns = 4096;
} // namespace

const char *cfed::getDbtTierName(DbtTier Tier) {
  switch (Tier) {
  case DbtTier::Base:
    return "base";
  case DbtTier::Opt:
    return "opt";
  }
  return "?";
}

Dbt::Dbt(Memory &Mem, DbtConfig Config, telemetry::MetricsRegistry *Metrics)
    : Mem(Mem), Config(Config),
      OwnedMetrics(Metrics ? nullptr
                           : std::make_unique<telemetry::MetricsRegistry>()),
      Metrics(Metrics ? Metrics : OwnedMetrics.get()), CacheAlloc(CacheBase),
      Translations(this->Metrics->counter("dbt.translations")),
      Dispatches(this->Metrics->counter("dbt.dispatches")),
      Chains(this->Metrics->counter("dbt.chains")),
      IbtcHits(this->Metrics->counter("dbt.ibtc_hits")),
      IbtcMisses(this->Metrics->counter("dbt.ibtc_misses")),
      Flushes(this->Metrics->counter("dbt.flushes")),
      FoldedUpdates(this->Metrics->counter("dbt.folded_updates")),
      SuperblockFusions(this->Metrics->counter("dbt.superblock_fusions")),
      Degrades(this->Metrics->counter("dbt.degrades")),
      IntegrityScrubs(this->Metrics->counter("integrity.scrubs")),
      IntegrityMismatches(this->Metrics->counter("integrity.mismatches")),
      IntegrityRetranslations(
          this->Metrics->counter("integrity.retranslations")),
      TracePromotions(this->Metrics->counter("trace.promotions")),
      TracesFormed(this->Metrics->counter("trace.formed")),
      TraceCondFusions(this->Metrics->counter("trace.cond_fusions")),
      TraceChecksElided(this->Metrics->counter("trace.checks_elided")),
      TraceDeadUpdates(this->Metrics->counter("trace.dead_updates")) {
  Checker = createChecker(Config.Tech, Config.Flavor);
  Checker->setShadowSignature(this->Config.ShadowSignature);
  Checker->bindMetrics(*this->Metrics);
  // Bound lazily so registries of shadow-stack-off runs stay identical
  // to their pre-adversarial-mode shape (campaign outputs are compared
  // byte-for-byte in CI).
  if (this->Config.ShadowStack)
    ShadowStack.bindMetrics(*this->Metrics);
}

Dbt::Dbt(Memory &Mem, const Dbt &Parent) : Dbt(Mem, Parent.Config) {
  Metrics->merge(Parent.Metrics->snapshot());
  Checker = Parent.Checker->clone();
  Checker->bindMetrics(*Metrics);
  BlockMap = Parent.BlockMap;
  SafePoints = Parent.SafePoints;
  Retired = Parent.Retired;
  NumCheckSites = Parent.NumCheckSites;
  LoadError = Parent.LoadError;
  Ibtc = Parent.Ibtc;
  Patches = Parent.Patches;
  CacheAlloc = Parent.CacheAlloc;
  GuestCodeBase = Parent.GuestCodeBase;
  GuestCodeSize = Parent.GuestCodeSize;
  GuestEntry = Parent.GuestEntry;
  CodePagesWritable = Parent.CodePagesWritable;
  DispatchesSinceScrub = Parent.DispatchesSinceScrub;
  EagerLeaders = Parent.EagerLeaders;
  if (Parent.Profile) {
    OwnedProfile = std::make_unique<telemetry::BlockProfile>(*Parent.Profile);
    Profile = OwnedProfile.get();
  }
}

Dbt::~Dbt() = default;

bool Dbt::sameTranslations(const Dbt &Other) const {
  if (Profile || Other.Profile || CacheAlloc != Other.CacheAlloc ||
      BlockMap.size() != Other.BlockMap.size() ||
      Patches.size() != Other.Patches.size() ||
      Retired.size() != Other.Retired.size() ||
      NumCheckSites != Other.NumCheckSites ||
      CodePagesWritable != Other.CodePagesWritable ||
      Config.EagerTranslate != Other.Config.EagerTranslate ||
      Config.Policy != Other.Config.Policy ||
      Config.ChainDirectExits != Other.Config.ChainDirectExits ||
      Config.SuperblockLimit != Other.Config.SuperblockLimit ||
      EagerLeaders != Other.EagerLeaders)
    return false;
  auto SameBlock = [](const TranslatedBlock &A, const TranslatedBlock &B) {
    return A.GuestAddr == B.GuestAddr && A.CacheAddr == B.CacheAddr &&
           A.CacheSize == B.CacheSize && A.UnitHead == B.UnitHead;
  };
  auto SamePoint = [](const SafePointInfo &A, const SafePointInfo &B) {
    return A.CacheAddr == B.CacheAddr && A.GuestAddr == B.GuestAddr &&
           A.Checked == B.Checked;
  };
  if (!std::equal(BlockMap.begin(), BlockMap.end(), Other.BlockMap.begin(),
                  SameBlock) ||
      !std::equal(SafePoints.begin(), SafePoints.end(),
                  Other.SafePoints.begin(), Other.SafePoints.end(),
                  SamePoint))
    return false;
  // Chaining order differs between runs that dispatched differently; only
  // the set of patched exits matters (unchaining restores each one).
  auto Sorted = [](std::vector<ChainPatch> P) {
    std::sort(P.begin(), P.end(), [](const ChainPatch &A, const ChainPatch &B) {
      return std::tie(A.SiteAddr, A.GuestTarget) <
             std::tie(B.SiteAddr, B.GuestTarget);
    });
    return P;
  };
  std::vector<ChainPatch> Mine = Sorted(Patches), Theirs = Sorted(Other.Patches);
  return std::equal(Mine.begin(), Mine.end(), Theirs.begin(),
                    [](const ChainPatch &A, const ChainPatch &B) {
                      return A.SiteAddr == B.SiteAddr &&
                             A.GuestTarget == B.GuestTarget;
                    });
}

bool Dbt::load(const AsmProgram &Program, CpuState &State) {
  LoadError.clear();
  if (Checker->requiresWholeProgramCfg() && !Config.EagerTranslate) {
    // The paper's on-demand limitation (Section 5).
    LoadError = "technique requires whole-program CFG but eager translation "
                "is off";
    return false;
  }

  // The optimizing tier re-forms hot units from profile data, which the
  // frozen translation set of eager mode cannot accommodate.
  if (Config.EagerTranslate)
    Config.Tier = DbtTier::Base;
  if (Config.Tier == DbtTier::Opt && !Profile) {
    OwnedProfile = std::make_unique<telemetry::BlockProfile>();
    Profile = OwnedProfile.get();
  }

  GuestCodeBase = CodeBase;
  GuestCodeSize = Program.Code.size();
  GuestEntry = Program.Entry;
  if (!loadProgramChecked(Program, LoadMode::Translated, Mem, State,
                          LoadError))
    return false;

  if (Config.EagerTranslate) {
    Cfg Graph = Cfg::build(Program.Code.data(), Program.Code.size(),
                           CodeBase, Program.Entry, Program.CodeLabels);
    if (!Checker->prepare(Graph)) {
      LoadError = "checker cannot instrument this program (indirect "
                  "control flow outside the static CFG)";
      return false;
    }
    EagerLeaders.clear();
    for (const auto &[Addr, Block] : Graph.blocks())
      EagerLeaders.push_back(Addr);
    for (uint64_t Leader : EagerLeaders)
      if (!BlockMap.contains(Leader))
        translate(Leader);
  }

  Checker->initState(State, GuestEntry);
  if (Config.ShadowSignature)
    Checker->seedShadowState(State);
  if (Config.ShadowStack) {
    // The ring sits below CacheBase so the recovery manager's write
    // observer journals it: rollback restores ring contents together
    // with RegSSP, keeping the shadow stack checkpoint-consistent.
    Mem.mapRegion(ShadowStackBase, ShadowStackBytes, PermRW);
    ShadowStack.initState(State);
  }
  State.PC = lookupOrTranslate(GuestEntry);
  return true;
}

StopInfo Dbt::run(Interpreter &Interp, uint64_t MaxInsns) {
  Interp.setDbtHooks(this);
  if (Profile)
    Interp.setBlockProfile(Profile);
  if (DigestRec) {
    DigestRec->setMode(telemetry::DigestRecorder::Mode::Marker);
    Interp.setDigestRecorder(DigestRec);
  }
  ClockSource = &Interp;
  // Execute encloses the run: translate time spent servicing exits is
  // charged to both, so exclusive execute time is execute - translate.
  telemetry::PhaseProfiler::Scope Timer(Profiler,
                                        telemetry::Phase::Execute);
  return Interp.run(MaxInsns);
}

void Dbt::reprotectCodePages() {
  if (!CodePagesWritable)
    return;
  Mem.setPerms(GuestCodeBase, GuestCodeSize, PermR);
  CodePagesWritable = false;
}

uint64_t Dbt::lookupOrTranslate(uint64_t GuestTarget) {
  if (const TranslatedBlock *TB = BlockMap.find(GuestTarget))
    return TB->CacheAddr;
  // Eager mode translated the whole program up front; the translation
  // set is frozen because the whole-program techniques (CFCSS/ECCA)
  // assigned signatures from the static CFG. A miss on a static leader
  // can only mean the cache was flushed (degradation rollback) — the
  // signature assignment is still valid, so retranslate it. Any other
  // miss is an erroneous target: execute it raw and let the page
  // protection trap.
  if (Config.EagerTranslate) {
    if (std::binary_search(EagerLeaders.begin(), EagerLeaders.end(),
                           GuestTarget))
      return translate(GuestTarget);
    return GuestTarget;
  }
  // Only instruction-aligned targets inside the code segment are
  // translatable; anything else executes raw and traps on the guest's
  // non-executable pages (the hardware category-F detector).
  if (GuestTarget < GuestCodeBase ||
      GuestTarget >= GuestCodeBase + GuestCodeSize ||
      (GuestTarget - GuestCodeBase) % InsnSize != 0)
    return GuestTarget;
  return translate(GuestTarget);
}

uint64_t Dbt::translate(uint64_t EntryGuest) {
  reprotectCodePages();
  Translations.inc();
  telemetry::PhaseProfiler::Scope Timer(Profiler,
                                        telemetry::Phase::Translate);

  // Promoted translations always run the folding backend: their inner
  // sub-blocks are never registered as chain targets, so the spine can
  // fold freely across seams.
  CodeBuilder Builder(Config.FoldSignatureUpdates || Promoting);
  struct SubBlock {
    uint64_t Guest = 0;
    size_t StartIdx = 0;
    std::vector<std::pair<size_t, size_t>> InstrIdx;
    bool Checked = false;
    uint64_t GuestEnd = 0;
    uint64_t GuestInsns = 0;
  };
  std::vector<SubBlock> Subs;
  std::set<uint64_t> InThisSuper;
  uint32_t CondSeamsFormed = 0;

  // Once the attached profile has observed executions, superblock fusion
  // extends only into blocks it knows to be hot; until it warms up,
  // first-seen order stands in for hotness.
  const bool ProfileWarm = Profile && Profile->hasExecutions();
  // Promoted traces may fuse past the superblock cap, up to the trace
  // limit, and may tail-duplicate already-translated successors.
  const unsigned FuseLimit =
      Promoting ? std::max(Config.SuperblockLimit, Config.TraceLimit)
                : Config.SuperblockLimit;
  // Adaptive per-region check placement: one policy per translation
  // unit, decided from the unit head's measured hotness.
  const CheckPolicy RegionPol = regionPolicy(EntryGuest);
  auto WantsFusion = [&](uint64_t Target) {
    return !Profile || !ProfileWarm || Profile->isHot(Target);
  };
  auto CanFuseInto = [&](uint64_t Target) {
    if (Target == EntryGuest || InThisSuper.count(Target))
      return false;
    if (Target < GuestCodeBase || Target >= GuestCodeBase + GuestCodeSize ||
        (Target - GuestCodeBase) % InsnSize != 0)
      return false;
    if (!Promoting && BlockMap.contains(Target))
      return false;
    return WantsFusion(Target);
  };
  auto EmitEdgeProf = [&](uint64_t From, uint64_t To) {
    if (Profile)
      Builder.push(insn::i(
          Opcode::Prof, static_cast<int32_t>(Profile->edgeSlot(From, To))));
  };

  uint64_t Guest = EntryGuest;
  unsigned Fused = 0;
  bool Done = false;
  while (!Done) {
    // Decode the dynamic block entered at Guest.
    std::vector<Instruction> Body;
    bool HasTerm = false;
    uint64_t Addr = Guest;
    uint64_t BlockLimit = GuestCodeBase + GuestCodeSize;
    if (Config.EagerTranslate) {
      // Stop at the next static leader so eager blocks match the CFG.
      auto Next = std::upper_bound(EagerLeaders.begin(), EagerLeaders.end(),
                                   Guest);
      if (Next != EagerLeaders.end())
        BlockLimit = *Next;
    }
    while (Addr + InsnSize <= GuestCodeBase + GuestCodeSize &&
           Addr < BlockLimit && Body.size() < MaxBlockInsns) {
      uint8_t Raw[InsnSize];
      Mem.readRaw(Addr, Raw, InsnSize);
      auto I = Instruction::decode(Raw);
      if (!I)
        break;
      Body.push_back(*I);
      Addr += InsnSize;
      if (isBlockTerminator(I->Op)) {
        HasTerm = true;
        break;
      }
    }
    if (Body.empty()) {
      if (Subs.empty())
        return EntryGuest; // Undecodable entry: execute raw and trap.
      Builder.push(insn::i(Opcode::Tramp,
                           static_cast<int32_t>(EntryGuest)));
      break;
    }

    uint64_t L = Guest;
    const Instruction *Term = HasTerm ? &Body.back() : nullptr;
    uint64_t TermAddr = Addr - InsnSize;
    OpKind TermKind = Term ? getOpcodeKind(Term->Op) : OpKind::None;
    bool BackEdge = Term && hasBranchOffset(Term->Op) &&
                    Term->branchTarget(TermAddr) <= L;
    bool HasStore = false;
    for (const Instruction &I : Body)
      if (opcodeStoresMemory(I.Op))
        HasStore = true;
    bool DoCheck =
        policyChecksBlock(RegionPol, TermKind, BackEdge, HasStore);
    if (RegionPol != Config.Policy && !DoCheck &&
        policyChecksBlock(Config.Policy, TermKind, BackEdge, HasStore))
      TraceChecksElided.inc();

    // Inner sub-blocks stay chain targets unless folding may merge their
    // entry instruction away (then they are not registered at all).
    // Promoted traces never register inner sub-blocks, so no barrier.
    if (!Config.FoldSignatureUpdates && !Promoting)
      Builder.markBarrier();
    Subs.push_back(SubBlock{Guest, Builder.size(), {}, DoCheck, Addr,
                            Body.size()});
    SubBlock &Sub = Subs.back();
    // The counter bump leads the prologue so that chained jumps (which
    // land on StartIdx) are attributed too.
    if (Profile)
      Builder.push(insn::i(Opcode::Prof,
                           static_cast<int32_t>(Profile->blockSlot(Guest))));

    auto EmitChecked = [&](auto EmitFn) {
      std::vector<Instruction> Seq;
      EmitFn(Seq);
      size_t Begin = Builder.size();
      for (const Instruction &I : Seq)
        Builder.push(I);
      Sub.InstrIdx.emplace_back(Begin, Builder.size());
    };

    EmitChecked([&](std::vector<Instruction> &Seq) {
      Checker->emitPrologue(Seq, L, DoCheck);
    });
    size_t BodyCount = Body.size() - (Term ? 1 : 0);
    for (size_t I = 0; I < BodyCount; ++I) {
      if (!Config.DataFlowCheck) {
        Builder.push(Body[I]);
        continue;
      }
      dfc::Expansion Expanded = dfc::expand(Body[I]);
      EmitChecked([&](std::vector<Instruction> &Seq) {
        Seq = std::move(Expanded.Before);
      });
      Builder.push(Body[I]);
      EmitChecked([&](std::vector<Instruction> &Seq) {
        Seq = std::move(Expanded.After);
      });
    }

    auto EmitTramp = [&](uint64_t Target) {
      Builder.push(insn::i(Opcode::Tramp, static_cast<int32_t>(Target)));
    };

    // One digest marker per sub-block, after the guest body and before
    // the checker's exit updates and the terminator lowering: the
    // captured state matches what the native interpreter sees at the
    // top of the terminator's handler, for every tier and fusion shape.
    // Seams with no terminator (fell into a leader or the size cap)
    // have no native transfer event, so their marker only advances the
    // retired-instruction key past the body.
    if (DigestRec) {
      bool CaptureHere = TermKind != OpKind::None;
      // The record's Checked bit means "a signature check actually runs
      // here": under Technique::None the policy still nominates blocks
      // but the checker emits nothing, so no boundary is checked.
      bool CheckRuns = DoCheck && Config.Tech != Technique::None;
      uint32_t Slot = DigestRec->defineMarker(
          static_cast<uint32_t>(BodyCount), TermAddr, CaptureHere, CheckRuns);
      Builder.push(insn::i(Opcode::Digest, static_cast<int32_t>(Slot)));
    }

    switch (TermKind) {
    case OpKind::None: { // Fell into a leader / block-size cap.
      uint64_t Target = Addr;
      EmitChecked([&](std::vector<Instruction> &Seq) {
        Checker->emitDirectUpdate(Seq, L, Target);
      });
      EmitEdgeProf(L, Target);
      if (Fused + 1 < FuseLimit && CanFuseInto(Target)) {
        InThisSuper.insert(Guest);
        Guest = Target;
        ++Fused;
        SuperblockFusions.inc();
        continue;
      }
      EmitTramp(Target);
      Done = true;
      break;
    }
    case OpKind::Jump: {
      uint64_t Target = Term->branchTarget(TermAddr);
      EmitChecked([&](std::vector<Instruction> &Seq) {
        Checker->emitDirectUpdate(Seq, L, Target);
      });
      EmitEdgeProf(L, Target);
      if (Fused + 1 < FuseLimit && CanFuseInto(Target)) {
        InThisSuper.insert(Guest);
        Guest = Target;
        ++Fused;
        SuperblockFusions.inc();
        continue;
      }
      EmitTramp(Target);
      Done = true;
      break;
    }
    case OpKind::CondJump:
    case OpKind::RegZeroJump: {
      uint64_t Taken = Term->branchTarget(TermAddr);
      uint64_t Fall = TermAddr + InsnSize;
      EmitChecked([&](std::vector<Instruction> &Seq) {
        if (TermKind == OpKind::CondJump)
          Checker->emitCondUpdate(Seq, L, Term->cond(), Taken, Fall);
        else
          Checker->emitRegCondUpdate(Seq, L, Term->Op, Term->A, Taken,
                                     Fall);
      });
      // Trace formation across the seam (promoted translations only):
      // continue inline along the measured-hotter side, leaving the cold
      // side as an exit stub. When the fall side wins, the branch is
      // inverted so the taken target becomes the stub.
      bool FuseTaken = false, FuseFall = false;
      if (Promoting && ProfileWarm && Fused + 1 < FuseLimit) {
        uint64_t TakenCount = Profile->edgeCount(L, Taken);
        uint64_t FallCount = Profile->edgeCount(L, Fall);
        FuseTaken = TakenCount > 0 && TakenCount >= FallCount &&
                    CanFuseInto(Taken);
        FuseFall = !FuseTaken && FallCount > 0 && CanFuseInto(Fall);
      }
      // jcc cc, +8 over the fall-through tramp onto the taken tramp.
      // With profiling, each stub grows a leading edge bump and the skip
      // widens to +16.
      int32_t Skip = static_cast<int32_t>(Profile ? 2 * InsnSize : InsnSize);
      Instruction Branch = *Term;
      Branch.Imm = Skip;
      if (FuseFall) {
        if (TermKind == OpKind::CondJump)
          Branch = insn::jcc(negateCondCode(Term->cond()), Skip);
        else
          Branch = insn::rri(Term->Op == Opcode::Jzr ? Opcode::Jnzr
                                                     : Opcode::Jzr,
                             Term->A, 0, Skip);
      }
      Builder.push(Branch);
      uint64_t StubTarget = FuseFall ? Taken : Fall;
      EmitEdgeProf(L, StubTarget);
      EmitTramp(StubTarget);
      if (FuseTaken || FuseFall) {
        uint64_t InlineTarget = FuseFall ? Fall : Taken;
        EmitEdgeProf(L, InlineTarget);
        InThisSuper.insert(Guest);
        Guest = InlineTarget;
        ++Fused;
        ++CondSeamsFormed;
        TraceCondFusions.inc();
        continue;
      }
      EmitEdgeProf(L, Taken);
      EmitTramp(Taken);
      Done = true;
      break;
    }
    case OpKind::Call: {
      uint64_t Target = Term->branchTarget(TermAddr);
      uint64_t ReturnSite = TermAddr + InsnSize;
      EmitChecked([&](std::vector<Instruction> &Seq) {
        Checker->emitDirectUpdate(Seq, L, Target);
      });
      // Push the *guest* return address so that returns carry guest
      // targets (free address-to-signature mapping, Section 5).
      Builder.push(insn::ri(Opcode::MovI, RegAUX2,
                            static_cast<int32_t>(ReturnSite)));
      Builder.push(insn::r(Opcode::Push, RegAUX2));
      if (Config.ShadowStack)
        EmitChecked([&](std::vector<Instruction> &Seq) {
          ShadowStack.emitCallPush(Seq, RegAUX2);
        });
      EmitEdgeProf(L, Target);
      EmitTramp(Target);
      Done = true;
      break;
    }
    case OpKind::IndCall: {
      uint64_t ReturnSite = TermAddr + InsnSize;
      EmitChecked([&](std::vector<Instruction> &Seq) {
        Checker->emitIndirectUpdate(Seq, L, Term->A);
      });
      Builder.push(insn::ri(Opcode::MovI, RegAUX2,
                            static_cast<int32_t>(ReturnSite)));
      Builder.push(insn::r(Opcode::Push, RegAUX2));
      if (Config.ShadowStack)
        EmitChecked([&](std::vector<Instruction> &Seq) {
          ShadowStack.emitCallPush(Seq, RegAUX2);
        });
      Builder.push(insn::r(Opcode::TrampR, Term->A));
      Done = true;
      break;
    }
    case OpKind::IndJump: {
      EmitChecked([&](std::vector<Instruction> &Seq) {
        Checker->emitIndirectUpdate(Seq, L, Term->A);
      });
      Builder.push(insn::r(Opcode::TrampR, Term->A));
      Done = true;
      break;
    }
    case OpKind::Ret: {
      Builder.push(insn::r(Opcode::Pop, RegAUX2));
      // The shadow check runs before the signature update: a forged
      // return traps 0x5AC before it can poison the signature stream,
      // so the matrix's detected-by-shadow-stack-only cell is exact.
      if (Config.ShadowStack)
        EmitChecked([&](std::vector<Instruction> &Seq) {
          ShadowStack.emitReturnCheck(Seq, RegAUX2);
        });
      EmitChecked([&](std::vector<Instruction> &Seq) {
        Checker->emitIndirectUpdate(Seq, L, RegAUX2);
      });
      Builder.push(insn::r(Opcode::TrampR, RegAUX2));
      Done = true;
      break;
    }
    case OpKind::Halt:
    case OpKind::Trap:
      Builder.push(*Term);
      Done = true;
      break;
    case OpKind::DbtExit:
    case OpKind::DbtExitInd:
      reportFatalErrorf("DBT-internal opcode in guest code at 0x%llx",
                        static_cast<unsigned long long>(TermAddr));
    }
  }

  // Install into the code cache.
  const std::vector<Instruction> &Code = Builder.code();
  assert(!Code.empty() && "empty translation");
  uint64_t Bytes = Code.size() * InsnSize;
  uint64_t Base = CacheAlloc;
  if (Base + Bytes > CacheBase + CacheMaxSize)
    reportFatalError("code cache exhausted");
  Mem.mapRegion(Base, Bytes, PermX);
  std::vector<uint8_t> Encoded(Bytes);
  for (size_t I = 0; I < Code.size(); ++I)
    Code[I].encode(&Encoded[I * InsnSize]);
  Mem.writeRaw(Base, Encoded.data(), Bytes);
  CacheAlloc = Base + Bytes;
  FoldedUpdates.inc(Builder.foldedCount());
  TraceDeadUpdates.inc(Builder.deadCount());
  if (Promoting && Subs.size() > 1)
    TracesFormed.inc();
  if (Tracer)
    Tracer->record(now(), telemetry::TraceEventKind::BlockTranslated,
                   nullptr, EntryGuest, Code.size());

  if (Profile) {
    for (size_t SubIndex = 0; SubIndex < Subs.size(); ++SubIndex) {
      const SubBlock &Sub = Subs[SubIndex];
      size_t EndIdx = SubIndex + 1 < Subs.size() ? Subs[SubIndex + 1].StartIdx
                                                 : Code.size();
      uint64_t InstrBytes = 0;
      for (const auto &[BeginIdx, EndI] : Sub.InstrIdx)
        InstrBytes += (EndI - BeginIdx) * InsnSize;
      Profile->noteBlock(Sub.Guest, Sub.GuestEnd, Sub.GuestInsns, InstrBytes,
                         (EndIdx - Sub.StartIdx) * InsnSize);
    }
  }

  // Register sub-blocks. With folding, inner entry points may have been
  // merged away, so only the superblock head is registered then; a
  // promoted trace registers only its head for the same reason (its
  // inner blocks are tail-duplicated copies, and the primary
  // translations — where they exist — stand on their own).
  bool HeadOnly = Config.FoldSignatureUpdates || Promoting;
  for (size_t SubIndex = 0; SubIndex < Subs.size(); ++SubIndex) {
    const SubBlock &Sub = Subs[SubIndex];
    if (SubIndex > 0 && HeadOnly)
      break;
    TranslatedBlock TB;
    TB.GuestAddr = Sub.Guest;
    TB.CacheAddr = Base + Sub.StartIdx * InsnSize;
    TB.CacheSize = Base + Bytes - TB.CacheAddr;
    TB.UnitHead = EntryGuest;
    TB.UnitBlocks = static_cast<uint32_t>(Subs.size());
    TB.CondSeams = CondSeamsFormed;
    TB.Promoted = Promoting;
    // When only the head is registered, its entry covers the whole
    // unit's bytes — so it must also carry every inner sub-block's
    // instrumentation ranges, or checker-emitted branches deep in the
    // trace would classify as original-program sites (fault campaigns
    // and --dump-cache both key off these ranges).
    size_t LastSub = HeadOnly ? Subs.size() : SubIndex + 1;
    for (size_t Inner = SubIndex; Inner < LastSub; ++Inner)
      for (const auto &[BeginIdx, EndIdx] : Subs[Inner].InstrIdx)
        TB.InstrRanges.emplace_back(Base + BeginIdx * InsnSize,
                                    Base + EndIdx * InsnSize);
    // The prologue start of a registered sub-block is a guest-consistent
    // re-entry point: record it for the recovery subsystem.
    SafePoints.add(SafePointInfo{TB.CacheAddr, Sub.Guest, Sub.Checked});
    NumCheckSites += Sub.Checked;
    if (integrityEnabled())
      TB.IntegrityWord = computeIntegrityWord(TB);
    BlockMap.insert(Sub.Guest, std::move(TB));
  }
  return Base;
}

uint64_t Dbt::onDirectExit(uint64_t SiteAddr, uint64_t GuestTarget) {
  Dispatches.inc();
  maybeScrub();
  uint64_t Cache = lookupOrTranslate(GuestTarget);
  // Verify before chaining: a corrupted target must be healed, not
  // wired into the fast path.
  if (Config.VerifyDispatchInterval && dispatchVerify(GuestTarget))
    Cache = lookupOrTranslate(GuestTarget);
  if (Config.Tier == DbtTier::Opt)
    Cache = maybePromote(GuestTarget, Cache);
  bool Translated = BlockMap.contains(GuestTarget);
  if (Config.Tier == DbtTier::Opt && Translated) {
    // Hold chaining until the target's unit is promoted: a chain patch
    // would freeze this edge on the unoptimized translation and starve
    // the promoter of the dispatches it watches. Every edge pays at
    // most PromoteThreshold trampoline dispatches before its target
    // either promotes (then chains) or proves cold.
    const TranslatedBlock *TB = BlockMap.find(GuestTarget);
    if (TB && !TB->Promoted)
      Translated = false;
  }
  if (Config.ChainDirectExits && Translated && isCacheAddr(SiteAddr)) {
    // Patch the Tramp into a direct jump (block chaining).
    Instruction Jump = insn::i(Opcode::Jmp,
                               Instruction::offsetFor(SiteAddr, Cache));
    uint8_t Raw[InsnSize];
    Jump.encode(Raw);
    Mem.writeRaw(SiteAddr, Raw, InsnSize);
    Patches.push_back({SiteAddr, GuestTarget});
    Chains.inc();
    // The patch legitimately mutated cache bytes: reseal the blocks
    // whose integrity words cover the site.
    if (integrityEnabled())
      resealBlocksContaining(SiteAddr);
    if (Tracer)
      Tracer->record(now(), telemetry::TraceEventKind::BlockChained, nullptr,
                     GuestTarget);
  }
  return Cache;
}

uint64_t Dbt::onIndirectExit(uint64_t SiteAddr, uint64_t GuestTarget) {
  (void)SiteAddr;
  Dispatches.inc();
  maybeScrub();
  // Indirect-branch translation cache: one direct-mapped probe before the
  // full lookup. Only committed translations enter the table, so a hit
  // can never swallow a trap a raw (untranslated) target would raise.
  IbtcEntry &Entry = Ibtc[(GuestTarget / InsnSize) % IbtcSlots];
  if (Entry.Guest == GuestTarget) {
    // A flipped entry would redirect control silently; with integrity
    // checking on, drop any entry whose seal no longer matches and fall
    // through to the full lookup (self-heal).
    if (integrityEnabled() &&
        Entry.Check != ibtcCheckWord(Entry.Guest, Entry.Cache)) {
      IntegrityMismatches.inc();
      Entry = IbtcEntry{};
    } else {
      IbtcHits.inc();
      if (Config.VerifyDispatchInterval && dispatchVerify(GuestTarget))
        return lookupOrTranslate(GuestTarget);
      // Indirect-only targets would otherwise hit here forever and
      // never promote; the check is two hash probes on the hit path.
      if (Config.Tier == DbtTier::Opt)
        return maybePromote(GuestTarget, Entry.Cache);
      return Entry.Cache;
    }
  }
  IbtcMisses.inc();
  uint64_t Cache = lookupOrTranslate(GuestTarget);
  if (Config.VerifyDispatchInterval && dispatchVerify(GuestTarget))
    Cache = lookupOrTranslate(GuestTarget);
  if (Config.Tier == DbtTier::Opt)
    Cache = maybePromote(GuestTarget, Cache);
  if (BlockMap.contains(GuestTarget))
    Entry = {GuestTarget, Cache, ibtcCheckWord(GuestTarget, Cache)};
  return Cache;
}

bool Dbt::onWriteViolation(uint64_t DataAddr) {
  if (DataAddr < GuestCodeBase || DataAddr >= GuestCodeBase + GuestCodeSize)
    return false; // A genuine protection fault, not self-modification.
  if (Checker->requiresWholeProgramCfg())
    reportFatalError("self-modifying code under a whole-program-CFG "
                     "technique (CFCSS/ECCA) is not supported");
  // Self-modification invalidates the static CFG an eager translator
  // worked from: fall back to on-demand translation of the new code.
  if (Config.EagerTranslate) {
    Config.EagerTranslate = false;
    EagerLeaders.clear();
  }
  flushTranslations();
  // Let the faulting store retry and future stores to this page proceed;
  // the page is re-protected before the next translation reads it.
  Mem.setPerms(DataAddr & ~(PageSize - 1), PageSize, PermRW);
  CodePagesWritable = true;
  Flushes.inc();
  if (Tracer)
    Tracer->record(now(), telemetry::TraceEventKind::CacheFlush, "smc",
                   DataAddr);
  return true;
}

//===----------------------------------------------------------------------===//
// Optimizing tier: hot-trace promotion and adaptive check placement
// (DESIGN.md §11).
//===----------------------------------------------------------------------===//

namespace {
/// How many checks a policy sinks, for choosing the laxer of two.
unsigned policyLaxity(CheckPolicy P) {
  switch (P) {
  case CheckPolicy::AllBB:
    return 0;
  case CheckPolicy::StoreBB:
    return 1;
  case CheckPolicy::RetBE:
    return 2;
  case CheckPolicy::Ret:
    return 3;
  case CheckPolicy::End:
    return 4;
  }
  return 0;
}
} // namespace

CheckPolicy Dbt::regionPolicy(uint64_t RegionHead) const {
  if (Config.Tier != DbtTier::Opt || !Profile)
    return Config.Policy;
  // Only ever relax relative to the configured policy, and only once
  // the region is measurably hot. Updates are emitted under every
  // policy, so sinking a check delays detection to the region's next
  // checking block; it never loses it (DESIGN.md §11).
  if (Profile->execCount(RegionHead) < Config.PromoteThreshold)
    return Config.Policy;
  return policyLaxity(Config.HotPolicy) > policyLaxity(Config.Policy)
             ? Config.HotPolicy
             : Config.Policy;
}

uint64_t Dbt::maybePromote(uint64_t GuestTarget, uint64_t Cache) {
  if (Config.Tier != DbtTier::Opt || !Profile || Promoting)
    return Cache;
  TranslatedBlock *TB = BlockMap.findMutable(GuestTarget);
  if (!TB || TB->Promoted)
    return Cache;
  // Heat is judged at the unit head (the retranslation entry), but an
  // inner member crossing the threshold also qualifies the unit — its
  // head may sit outside the hot loop.
  if (Profile->execCount(TB->UnitHead) < Config.PromoteThreshold &&
      Profile->execCount(GuestTarget) < Config.PromoteThreshold)
    return Cache;
  telemetry::PhaseProfiler::Scope Timer(Profiler, telemetry::Phase::Trace);
  uint64_t Head = evictUnit(TB->CacheAddr + TB->CacheSize);
  if (Head == ~0ULL)
    return Cache;
  TracePromotions.inc();
  Promoting = true;
  translate(Head);
  Promoting = false;
  uint64_t NewCache = lookupOrTranslate(GuestTarget);
  if (Tracer)
    Tracer->record(now(), telemetry::TraceEventKind::TracePromoted, nullptr,
                   Head, Profile->execCount(Head));
  return NewCache;
}

//===----------------------------------------------------------------------===//
// Self-integrity: integrity words, dispatch verification, scrubbing, and
// quarantine (DESIGN.md §10).
//===----------------------------------------------------------------------===//

uint64_t Dbt::ibtcCheckWord(uint64_t Guest, uint64_t Cache) {
  uint64_t H = Guest * 0x9e3779b97f4a7c15ULL;
  H ^= H >> 32;
  H += Cache * 0xff51afd7ed558ccdULL;
  H ^= H >> 29;
  return H | 1;
}

namespace {

constexpr uint64_t FnvOffset = 1469598103934665603ULL;
constexpr uint64_t FnvPrime = 1099511628211ULL;

/// One FNV-style step over a whole 64-bit word. For a fixed word each
/// step is a bijection of H (xor, then multiply by an odd prime), so two
/// inputs that differ in exactly one word always fold to different values.
void foldWord(uint64_t &H, uint64_t W) { H = (H ^ W) * FnvPrime; }

} // namespace

uint64_t Dbt::computeIntegrityWord(const TranslatedBlock &TB) const {
  uint64_t H = FnvOffset;
  uint64_t Buf[32];
  uint64_t End = TB.CacheAddr + TB.CacheSize;
  for (uint64_t Addr = TB.CacheAddr; Addr < End;) {
    uint64_t Chunk = std::min<uint64_t>(sizeof(Buf), End - Addr);
    Mem.readRaw(Addr, Buf, Chunk);
    // A size that is not a multiple of 8 (only a corrupted entry has
    // one) folds its zero-padded tail as a last word.
    if (Chunk % 8 != 0)
      std::memset(reinterpret_cast<uint8_t *>(Buf) + Chunk, 0,
                  8 - Chunk % 8);
    for (uint64_t W = 0; W < (Chunk + 7) / 8; ++W)
      foldWord(H, Buf[W]);
    Addr += Chunk;
  }
  // Sealed header: the entry metadata a flipped BlockTable slot would
  // change. Folding it into the same word makes one verification cover
  // both the emitted code and the table entry describing it.
  foldWord(H, TB.GuestAddr);
  foldWord(H, TB.CacheAddr);
  foldWord(H, TB.CacheSize);
  return H;
}

bool Dbt::isPlausibleBlock(const TranslatedBlock &TB) const {
  // A flipped CacheAddr/CacheSize could point the hash walk outside the
  // mapped cache region.
  return TB.CacheAddr >= CacheBase && TB.CacheSize != 0 &&
         TB.CacheAddr + TB.CacheSize >= TB.CacheAddr &&
         TB.CacheAddr + TB.CacheSize <= CacheAlloc;
}

bool Dbt::verifyIntegrityWord(const TranslatedBlock &TB) const {
  return isPlausibleBlock(TB) &&
         computeIntegrityWord(TB) == TB.IntegrityWord;
}

void Dbt::resealBlocksContaining(uint64_t CacheAddr) {
  // An implausible entry keeps its stale word: the next verification of
  // it fails, which is the detection we want.
  for (TranslatedBlock &TB : BlockMap)
    if (TB.containsCacheAddr(CacheAddr) && isPlausibleBlock(TB))
      TB.IntegrityWord = computeIntegrityWord(TB);
}

bool Dbt::dispatchVerify(uint64_t GuestTarget) {
  TranslatedBlock *TB = BlockMap.findMutable(GuestTarget);
  if (!TB)
    return false;
  if (++TB->Hits % Config.VerifyDispatchInterval != 0)
    return false;
  if (verifyIntegrityWord(*TB))
    return false;
  IntegrityMismatches.inc();
  quarantineUnit(TB->CacheAddr + TB->CacheSize, "dispatch-verify");
  return true;
}

void Dbt::maybeScrub() {
  if (!Config.ScrubInterval)
    return;
  if (++DispatchesSinceScrub < Config.ScrubInterval)
    return;
  DispatchesSinceScrub = 0;
  scrubCodeCache();
}

size_t Dbt::scrubCodeCache() {
  if (!integrityEnabled())
    return 0; // Blocks were never sealed; nothing to verify against.
  telemetry::PhaseProfiler::Scope Timer(Profiler, telemetry::Phase::Scrub);
  IntegrityScrubs.inc();
  // Collect corrupted units first: quarantining mutates the table, so
  // no eviction happens mid-iteration.
  std::vector<uint64_t> BadUnits;
  size_t BadBlocks = 0;
  for (const TranslatedBlock &TB : BlockMap) {
    if (verifyIntegrityWord(TB))
      continue;
    ++BadBlocks;
    IntegrityMismatches.inc();
    uint64_t UnitEnd = TB.CacheAddr + TB.CacheSize;
    if (std::find(BadUnits.begin(), BadUnits.end(), UnitEnd) ==
        BadUnits.end())
      BadUnits.push_back(UnitEnd);
  }
  if (Tracer)
    Tracer->record(now(), telemetry::TraceEventKind::IntegrityScrub, nullptr,
                   0, BlockMap.size());
  for (uint64_t UnitEnd : BadUnits)
    quarantineUnit(UnitEnd, "scrub");
  return BadBlocks;
}

bool Dbt::verifyGuestBlock(uint64_t GuestAddr) const {
  const TranslatedBlock *TB = BlockMap.find(GuestAddr);
  if (!TB || !integrityEnabled())
    return true;
  return verifyIntegrityWord(*TB);
}

bool Dbt::quarantineGuestBlock(uint64_t GuestAddr) {
  const TranslatedBlock *TB = BlockMap.find(GuestAddr);
  if (!TB)
    return false;
  quarantineUnit(TB->CacheAddr + TB->CacheSize, "recovery");
  return true;
}

bool Dbt::faultFlipBlockMetaBit(size_t Index, unsigned Word, unsigned Bit) {
  if (BlockMap.empty())
    return false;
  auto It = BlockMap.begin();
  std::advance(It, Index % BlockMap.size());
  TranslatedBlock &TB = *It;
  uint64_t Mask = 1ull << (Bit % 64);
  switch (Word % 3) {
  case 0:
    TB.GuestAddr ^= Mask;
    break;
  case 1:
    TB.CacheAddr ^= Mask;
    break;
  default:
    TB.CacheSize ^= Mask;
    break;
  }
  return true;
}

bool Dbt::attackSwapIbtcEntry(uint64_t GuestTarget, uint64_t ForgedGuest) {
  const TranslatedBlock *TB = BlockMap.find(ForgedGuest);
  if (!TB)
    return false;
  // A valid seal over the *forged* pair: integrity verification accepts
  // the entry, so only the signature algebra can catch the redirect.
  IbtcEntry &Entry = Ibtc[(GuestTarget / InsnSize) % IbtcSlots];
  Entry = {GuestTarget, TB->CacheAddr,
           ibtcCheckWord(GuestTarget, TB->CacheAddr)};
  return true;
}

bool Dbt::attackPatchDirectExit(uint64_t SiteAddr, uint64_t ForgedGuest) {
  const TranslatedBlock *Forged = BlockMap.find(ForgedGuest);
  if (!Forged || !isCacheAddr(SiteAddr))
    return false;
  uint8_t Raw[InsnSize];
  Mem.readRaw(SiteAddr, Raw, InsnSize);
  auto Site = Instruction::decode(Raw);
  if (!Site)
    return false;
  Instruction Patched = *Site;
  if (Site->Op == Opcode::Tramp) {
    Patched.Imm = static_cast<int32_t>(ForgedGuest);
  } else if (Site->Op == Opcode::Jmp) {
    // Already chained: redirect the jump straight at the forged block's
    // translation.
    Patched.Imm = Instruction::offsetFor(SiteAddr, Forged->CacheAddr);
  } else {
    return false;
  }
  // Keep the patch signature-compatible for the additive schemes: the
  // exit's lea update (when present immediately before the site) moves
  // by the difference between the original and the forged target, so
  // the forged block's entry algebra still cancels. CFCSS/ECCA updates
  // are not lea-shaped; a naive patch stays signature-incompatible
  // there, which is exactly what the precision matrix measures.
  if (SiteAddr >= CacheBase + InsnSize) {
    uint8_t PrevRaw[InsnSize];
    Mem.readRaw(SiteAddr - InsnSize, PrevRaw, InsnSize);
    auto Prev = Instruction::decode(PrevRaw);
    if (Prev && Prev->Op == Opcode::Lea && Prev->A == Prev->B &&
        (Prev->A == RegPCP || Prev->A == RegRTS)) {
      uint64_t RealTarget = 0;
      bool HaveReal = false;
      if (Site->Op == Opcode::Tramp) {
        RealTarget = static_cast<uint64_t>(
            static_cast<int64_t>(Site->Imm));
        HaveReal = true;
      } else if (const TranslatedBlock *RealTB =
                     cacheBlockContaining(Site->branchTarget(SiteAddr))) {
        RealTarget = RealTB->GuestAddr;
        HaveReal = true;
      }
      int64_t Delta = HaveReal
                          ? static_cast<int64_t>(ForgedGuest) -
                                static_cast<int64_t>(RealTarget)
                          : 0;
      int64_t NewImm = static_cast<int64_t>(Prev->Imm) + Delta;
      if (Delta != 0 && NewImm >= INT32_MIN && NewImm <= INT32_MAX) {
        Instruction Adjusted = *Prev;
        Adjusted.Imm = static_cast<int32_t>(NewImm);
        uint8_t AdjRaw[InsnSize];
        Adjusted.encode(AdjRaw);
        Mem.writeRaw(SiteAddr - InsnSize, AdjRaw, InsnSize);
      }
    }
  }
  uint8_t PatchRaw[InsnSize];
  Patched.encode(PatchRaw);
  Mem.writeRaw(SiteAddr, PatchRaw, InsnSize);
  // Deliberately no reseal: a real SMC attacker does not get to update
  // the monitor's integrity words. The scrubber / dispatch verifier are
  // the intended detectors.
  if (Tracer)
    Tracer->record(now(), telemetry::TraceEventKind::AttackApplied, nullptr,
                   SiteAddr);
  return true;
}

bool Dbt::faultFlipIbtcBit(size_t Index, unsigned Bit) {
  std::vector<IbtcEntry *> Occupied;
  for (IbtcEntry &Entry : Ibtc)
    if (Entry.Guest != ~0ULL)
      Occupied.push_back(&Entry);
  if (Occupied.empty())
    return false;
  Occupied[Index % Occupied.size()]->Cache ^= 1ull << (Bit % 64);
  return true;
}

void Dbt::quarantineUnit(uint64_t UnitEnd, const char *Origin) {
  // Enumerate the members before eviction for the diagnostics.
  std::vector<uint64_t> Guests;
  uint64_t UnitStart = UnitEnd;
  uint64_t HeadGuest = 0;
  for (const TranslatedBlock &TB : BlockMap) {
    if (TB.CacheAddr + TB.CacheSize != UnitEnd)
      continue;
    Guests.push_back(TB.GuestAddr);
    if (TB.CacheAddr <= UnitStart) {
      UnitStart = TB.CacheAddr;
      HeadGuest = TB.GuestAddr;
    }
  }
  if (Guests.empty())
    return;

  // Post-mortem before eviction so the bundle still disassembles the
  // corrupt host bytes.
  if (Recorder && ClockSource) {
    StopInfo S;
    S.Kind = StopKind::Halted;
    S.PC = std::max(UnitStart, CacheBase);
    telemetry::PostMortem PM = buildPostMortem("quarantine", S, *ClockSource);
    PM.Note = Origin;
    PM.Annotations.emplace_back("guest_addr", HeadGuest);
    PM.Annotations.emplace_back("unit_start", UnitStart);
    PM.Annotations.emplace_back("unit_end", UnitEnd);
    PM.Annotations.emplace_back("blocks", Guests.size());
    Recorder->write(PM);
  }
  if (Tracer)
    Tracer->record(now(), telemetry::TraceEventKind::BlockQuarantined, Origin,
                   HeadGuest, Guests.size());

  evictUnit(UnitEnd);

  // Self-heal: retranslate the unit head when it is still a
  // translatable guest target. (A flipped GuestAddr falls back to lazy
  // retranslation at the next dispatch of the real address.)
  if (!BlockMap.contains(HeadGuest)) {
    uint64_t Cache = lookupOrTranslate(HeadGuest);
    if (isCacheAddr(Cache))
      IntegrityRetranslations.inc();
  }
}

uint64_t Dbt::evictUnit(uint64_t UnitEnd) {
  // All sub-blocks of one translation unit share the unit's end address
  // (each CacheSize extends to it), which identifies the unit's members
  // even when one entry's other metadata is corrupted.
  std::vector<uint64_t> Guests;
  uint64_t UnitStart = UnitEnd;
  uint64_t HeadGuest = 0;
  for (const TranslatedBlock &TB : BlockMap) {
    if (TB.CacheAddr + TB.CacheSize != UnitEnd)
      continue;
    Guests.push_back(TB.GuestAddr);
    if (TB.CacheAddr <= UnitStart) {
      UnitStart = TB.CacheAddr;
      HeadGuest = TB.GuestAddr;
    }
  }
  if (Guests.empty())
    return ~0ULL;
  // Clamp the cleanup range to the live cache: corrupted metadata can
  // push the nominal range out of bounds.
  uint64_t RangeBegin = std::max(UnitStart, CacheBase);
  uint64_t RangeEnd = std::min(UnitEnd, CacheAlloc);

  // Safe points (and the check-site census) of the evicted range; the
  // predecode invalidation below drops their tags.
  if (RangeBegin < RangeEnd)
    NumCheckSites -= SafePoints.erase(RangeBegin, RangeEnd);

  // IBTC entries keyed by an evicted guest or pointing into the unit.
  for (IbtcEntry &Entry : Ibtc) {
    if (Entry.Guest == ~0ULL)
      continue;
    bool InRange = Entry.Cache >= RangeBegin && Entry.Cache < RangeEnd;
    bool EvictedGuest = std::find(Guests.begin(), Guests.end(),
                                  Entry.Guest) != Guests.end();
    if (InRange || EvictedGuest)
      Entry = IbtcEntry{};
  }

  // Unchain predecessors jumping into the unit (restore their Tramp so
  // they re-dispatch into the fresh translation) and drop bookkeeping
  // for patch sites inside the unit (their bytes are stale).
  std::vector<uint64_t> UnchainedSites;
  std::vector<ChainPatch> Kept;
  for (const ChainPatch &Patch : Patches) {
    bool SiteInUnit =
        Patch.SiteAddr >= RangeBegin && Patch.SiteAddr < RangeEnd;
    bool TargetsUnit = std::find(Guests.begin(), Guests.end(),
                                 Patch.GuestTarget) != Guests.end();
    if (SiteInUnit)
      continue;
    if (TargetsUnit) {
      Instruction Tramp =
          insn::i(Opcode::Tramp, static_cast<int32_t>(Patch.GuestTarget));
      uint8_t Raw[InsnSize];
      Tramp.encode(Raw);
      Mem.writeRaw(Patch.SiteAddr, Raw, InsnSize);
      UnchainedSites.push_back(Patch.SiteAddr);
      continue;
    }
    Kept.push_back(Patch);
  }
  Patches = std::move(Kept);

  // Retire the unit's byte range before dropping its blocks: the bytes
  // stay allocated (cache storage is never reused), and branch-site
  // classification must keep seeing the old translation's
  // instrumentation ranges for executions that happened before the
  // eviction.
  if (RangeBegin < RangeEnd) {
    RetiredRange RR;
    RR.Begin = RangeBegin;
    RR.End = RangeEnd;
    RR.GuestHead = HeadGuest;
    for (const TranslatedBlock &TB : BlockMap)
      if (TB.CacheAddr + TB.CacheSize == UnitEnd)
        for (const auto &Range : TB.InstrRanges)
          RR.InstrRanges.push_back(Range);
    Retired.push_back(std::move(RR));
  }

  // Evict the unit's blocks and any stale decode of its bytes, which
  // would carry the tags of the erased safe points.
  BlockMap.eraseIf([UnitEnd](const TranslatedBlock &TB) {
    return TB.CacheAddr + TB.CacheSize == UnitEnd;
  });
  if (RangeBegin < RangeEnd)
    Mem.invalidatePredecode(RangeBegin, RangeEnd - RangeBegin);

  // The unchaining writes mutated live predecessor blocks: reseal them.
  for (uint64_t Site : UnchainedSites)
    resealBlocksContaining(Site);
  return HeadGuest;
}

void Dbt::flushTranslations() {
  // Unchain every patched exit so stale translations always re-dispatch;
  // the translator then picks up the modified guest code. Cache storage
  // is not reclaimed (stale code stays fetchable until control leaves
  // it), matching the usual DBT flush discipline.
  for (const ChainPatch &Patch : Patches) {
    Instruction Tramp =
        insn::i(Opcode::Tramp, static_cast<int32_t>(Patch.GuestTarget));
    uint8_t Raw[InsnSize];
    Tramp.encode(Raw);
    Mem.writeRaw(Patch.SiteAddr, Raw, InsnSize);
  }
  Patches.clear();
  BlockMap.clear();
  SafePoints.clear();
  NumCheckSites = 0;
  // Stale guest→cache mappings must not short-circuit re-dispatch.
  Ibtc.fill(IbtcEntry{});
  // The unchaining writes above already dropped the predecode arrays of
  // the pages they touched; drop the whole cache region explicitly so no
  // stale decode survives a flush.
  Mem.invalidatePredecode(CacheBase, CacheAlloc - CacheBase);
}

void Dbt::degradeToConservative() {
  flushTranslations();
  Config.ChainDirectExits = false;
  Config.SuperblockLimit = 1;
  Config.FoldSignatureUpdates = false;
  Config.Policy = CheckPolicy::AllBB;
  // The optimizing tier is the first thing to go: no trace re-forming,
  // no check sinking on a translator that is already misbehaving.
  Config.Tier = DbtTier::Base;
  Degrades.inc();
  if (Tracer)
    Tracer->record(now(), telemetry::TraceEventKind::DegradationStep,
                   "conservative-retranslate");
}

uint64_t Dbt::guestPCFor(uint64_t PC) const {
  if (!isCacheAddr(PC))
    return PC;
  if (const TranslatedBlock *TB = cacheBlockContaining(PC))
    return TB->GuestAddr;
  return PC;
}

const TranslatedBlock *Dbt::cacheBlockContaining(uint64_t Addr) const {
  const TranslatedBlock *Best = nullptr;
  for (const TranslatedBlock &TB : BlockMap)
    if (TB.containsCacheAddr(Addr))
      if (!Best || TB.CacheAddr > Best->CacheAddr) // Innermost sub-block.
        Best = &TB;
  return Best;
}

std::vector<BranchSiteInfo> Dbt::enumerateBranchSites() const {
  std::vector<BranchSiteInfo> Sites;
  // Visit outermost blocks only: sub-blocks alias superblock bytes.
  std::vector<const TranslatedBlock *> ByCache;
  for (const TranslatedBlock &TB : BlockMap)
    ByCache.push_back(&TB);
  std::sort(ByCache.begin(), ByCache.end(),
            [](const TranslatedBlock *A, const TranslatedBlock *B) {
              return A->CacheAddr < B->CacheAddr;
            });
  uint64_t CoveredEnd = 0;
  for (const TranslatedBlock *TB : ByCache) {
    if (TB->CacheAddr < CoveredEnd)
      continue;
    CoveredEnd = TB->CacheAddr + TB->CacheSize;
    for (uint64_t Addr = TB->CacheAddr; Addr < CoveredEnd;
         Addr += InsnSize) {
      uint8_t Raw[InsnSize];
      Mem.readRaw(Addr, Raw, InsnSize);
      auto I = Instruction::decode(Raw);
      if (!I || !hasBranchOffset(I->Op))
        continue;
      BranchSiteInfo Site;
      Site.CacheAddr = Addr;
      Site.Op = I->Op;
      // Instrumentation ranges live on the innermost sub-block.
      const TranslatedBlock *Inner = cacheBlockContaining(Addr);
      Site.IsInstrumentation = Inner && Inner->isInstrumentation(Addr);
      Site.GuestBlock = Inner ? Inner->GuestAddr : TB->GuestAddr;
      Sites.push_back(Site);
    }
  }
  // Retired ranges: translations evicted by promotion or quarantine.
  // Their storage is never reused, so the ranges are disjoint from every
  // live block and from each other.
  for (const RetiredRange &RR : Retired) {
    for (uint64_t Addr = RR.Begin; Addr < RR.End; Addr += InsnSize) {
      uint8_t Raw[InsnSize];
      Mem.readRaw(Addr, Raw, InsnSize);
      auto I = Instruction::decode(Raw);
      if (!I || !hasBranchOffset(I->Op))
        continue;
      BranchSiteInfo Site;
      Site.CacheAddr = Addr;
      Site.Op = I->Op;
      for (const auto &[Begin, End] : RR.InstrRanges)
        if (Addr >= Begin && Addr < End) {
          Site.IsInstrumentation = true;
          break;
        }
      Site.GuestBlock = RR.GuestHead;
      Sites.push_back(Site);
    }
  }
  return Sites;
}

telemetry::PostMortem Dbt::buildPostMortem(const char *Reason,
                                           const StopInfo &Stop,
                                           const Interpreter &Interp) const {
  telemetry::PostMortem PM;
  PM.Reason = Reason;
  switch (Stop.Kind) {
  case StopKind::Halted:
    PM.StopKind = "halted";
    break;
  case StopKind::Trapped:
    PM.StopKind = "trap";
    PM.TrapName = getTrapKindName(Stop.Trap);
    break;
  case StopKind::InsnLimit:
    PM.StopKind = "insn-limit";
    break;
  }
  PM.Description = describeStop(Stop);
  PM.GuestPC = guestPCFor(Stop.PC);
  PM.CachePC = Stop.PC;
  PM.TrapAddr = Stop.TrapAddr;
  PM.BreakCode = Stop.BreakCode;
  PM.Insns = Interp.instructionCount();
  PM.Cycles = Interp.cycleCount();

  const CpuState &State = Interp.state();
  PM.Regs.assign(State.Regs, State.Regs + NumIntRegs);
  PM.FlagBits = State.F.pack();

  if (Tracer)
    PM.Events = Tracer->events();
  PM.Registry = Metrics->snapshot();

  // Disassemble the faulting block: the guest view from the sub-block's
  // entry, and the code-cache view including the woven instrumentation.
  constexpr uint64_t MaxGuestInsns = 16;
  constexpr uint64_t MaxHostInsns = 32;
  if (const TranslatedBlock *TB = cacheBlockContaining(Stop.PC)) {
    uint64_t GStart = TB->GuestAddr;
    uint64_t GEnd = std::min(GuestCodeBase + GuestCodeSize,
                             GStart + MaxGuestInsns * InsnSize);
    if (GStart >= GuestCodeBase && GStart < GEnd) {
      std::vector<uint8_t> Buf(GEnd - GStart);
      Mem.readRaw(GStart, Buf.data(), Buf.size());
      PM.GuestDisasm = disassembleRange(Buf.data(), Buf.size(), GStart);
    }
    uint64_t HBytes = std::min<uint64_t>(TB->CacheSize,
                                         MaxHostInsns * InsnSize);
    std::vector<uint8_t> HBuf(HBytes);
    Mem.readRaw(TB->CacheAddr, HBuf.data(), HBytes);
    PM.HostDisasm = disassembleRange(HBuf.data(), HBytes, TB->CacheAddr);
  } else if (PM.GuestPC >= GuestCodeBase &&
             PM.GuestPC < GuestCodeBase + GuestCodeSize) {
    // Stopped outside the cache (interpreter fallback, raw execution):
    // disassemble the guest code around the stop PC instead.
    uint64_t GStart =
        PM.GuestPC - (PM.GuestPC - GuestCodeBase) % InsnSize;
    uint64_t GEnd = std::min(GuestCodeBase + GuestCodeSize,
                             GStart + MaxGuestInsns * InsnSize);
    std::vector<uint8_t> Buf(GEnd - GStart);
    Mem.readRaw(GStart, Buf.data(), Buf.size());
    PM.GuestDisasm = disassembleRange(Buf.data(), Buf.size(), GStart);
  }
  return PM;
}

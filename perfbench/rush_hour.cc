// rush_hour: interactive time-sharing, end to end.
//
// Terminals far outnumber the 16 CPUs.  Each terminal's lines travel as
// frames on one front-end MultiplexedChannel, through the kernel's
// GenericDemux and the user-domain TerminalProtocolUser, both charged on the
// kernel's cost model.  A session is a login line (AnsweringService::Login),
// a few command lines and a logout line; then the terminal thinks for an
// exponentially distributed time and dials again.  A command walks to and
// initiates the shared library segment and the user's home segment, reads
// library pages, writes and re-reads home-segment words, and computes.
//
// Closed loop: a terminal's next line is due when its previous one completes
// plus a typing gap (within a session) or a think time (after logout).  One
// op is one line's transaction; its latency runs from the line's due time.
#include <map>
#include <sstream>

#include "src/net/demux.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mks::Cycles;

constexpr uint16_t kCpus = 16;
constexpr int kTerminals = 256;
constexpr int kProjects = 16;
constexpr uint32_t kLibPages = 16;
constexpr uint32_t kLibWords = 8;    // distinct words per library page
constexpr uint32_t kWorkPages = 4;   // pages of each home segment
constexpr uint32_t kWorkWords = 16;  // distinct words per home-segment page
constexpr size_t kCharsPerFrame = 8;
constexpr uint64_t kTransactions = 200000;  // measured ops per repetition
// The session shape is assumed, not taken from a measured Multics trace:
// 2-6 commands a session, each with 2-6 library reads, 1-4 home-segment
// writes and kComputeMean cycles of compute, lines kTypeMean apart.
constexpr double kTypeMean = 1000000;   // cycles between lines of a session
constexpr double kComputeMean = 20000;  // cycles of compute per command
// Mean cycles between sessions, set by measurement so the pool is busy but
// below saturation.  On seed 1, throughput peaks at 32.4 transactions per
// Mcyc with a 40 Mcyc think time (median latency 0.33 Mcyc) and falls to
// 24.8 at 0 as contention grows; at 50 Mcyc it is 27.5, 85% of the peak,
// with the median latency 4.7 times its light-load value (20 kcyc at
// 800 Mcyc).  name_churn's think time is set to the same share.
constexpr double kThinkMean = 50000000;

mks::KernelConfig RushHourConfig() {
  mks::KernelConfig config = ModelledKernelConfig(kCpus);
  config.memory_frames = 1024;
  config.ast_slots = 512;
  config.pack_count = 4;
  config.vtoc_slots_per_pack = 4096;
  config.records_per_pack = 16384;
  return config;
}

std::string Person(int u) { return "User" + std::to_string(u); }
std::string Project(int u) { return "Proj" + std::to_string(u % kProjects); }
std::string Password(int u) { return "pw" + std::to_string(u * 7919 + 1); }
std::string HomePath(int u) { return ">udd>" + Project(u) + ">" + Person(u); }
mks::Word LibValue(uint32_t page, uint32_t word) { return 0x11000000u + page * 256 + word; }

enum class Next : uint8_t { kLogin, kCommand, kLogout };

// What the sessions a terminal logged out must have added to its
// principal's bill.  Connect time is billed at a point inside Logout, so it
// is known to lie between the session's age when Logout was called and its
// age when Logout returned.
struct Owed {
  uint64_t sessions = 0;
  Cycles cpu_cycles = 0;
  uint64_t ops = 0;
  Cycles connect_lo = 0;
  Cycles connect_hi = 0;
};

// The accounting report, principal -> bill.
std::map<std::string, mks::SessionBill> ParseReport(const std::string& report) {
  std::map<std::string, mks::SessionBill> bills;
  std::istringstream in(report);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string who;
    mks::SessionBill bill;
    fields >> who >> bill.cpu_cycles >> bill.ops >> bill.connect_time;
    bills[who] = bill;
  }
  return bills;
}

struct Terminal {
  explicit Terminal(uint64_t seed) : rng(seed) {}
  mks::Rng rng;
  Next next = Next::kLogin;
  int commands_left = 0;
  mks::ProcessId pid{};
  uint32_t seq = 0;  // frame sequence number on the terminal's line
};

class RushHour {
 public:
  RushHour(uint64_t seed, bool trace)
      : seed_(seed),
        kernel_(RushHourConfig()),
        spans_(trace, &kernel_.clock()),
        auth_(&kernel_),
        walker_(&kernel_.gates()),
        channel_(mks::ChannelId(0), "front_end"),
        demux_(&kernel_.ctx().cost, &kernel_.metrics()),
        tty_(&kernel_.ctx().cost, &kernel_.metrics(), &demux_, mks::ChannelId(0)),
        shadow_(static_cast<size_t>(kTerminals) * kWorkPages * kWorkWords, 0) {
    demux_.AttachChannel(&channel_);
  }

  // `setup` started before the kernel was constructed.
  RunResult Run(const Stopwatch& setup);

 private:
  std::string SetUp();
  std::string Verify();
  bool Transact(int t);
  bool Deliver(int t, const std::string& line);
  bool Command(int t);
  bool Logout(int t);
  mks::Word& Shadow(int u, uint32_t page, uint32_t word) {
    return shadow_[(static_cast<size_t>(u) * kWorkPages + page) * kWorkWords + word];
  }
  static uint32_t Offset(uint32_t page, uint32_t word) { return page * mks::kPageWords + word; }

  uint64_t seed_;
  mks::Kernel kernel_;
  SpanLog spans_;
  mks::Authenticator auth_;
  std::unique_ptr<mks::AnsweringService> service_;
  mks::PathWalker walker_;
  mks::MultiplexedChannel channel_;
  mks::GenericDemux demux_;
  mks::TerminalProtocolUser tty_;
  std::vector<Terminal> terms_;
  std::vector<mks::Word> shadow_;  // expected value of every home-segment word
  std::map<std::string, mks::SessionBill> bills0_;  // the report after warm-up
  std::vector<Owed> owed_;         // per terminal, since warm-up
  std::string op_error_;           // first wrong value seen during the run
};

std::string RushHour::SetUp() {
  if (!kernel_.Boot().ok() || !auth_.Init().ok()) {
    return "boot failed";
  }
  service_ = std::make_unique<mks::AnsweringService>(&kernel_, &auth_,
                                                     mks::ServiceDomain::kUserDomain,
                                                     ModelledAnsweringConfig(kCpus));
  for (int u = 0; u < kTerminals; ++u) {
    terms_.emplace_back(seed_ * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(u) + 1);
    if (!auth_.Enroll(mks::Principal{Person(u), Project(u)}, Password(u), mks::Label(2, 0))
             .ok()) {
      return "enroll failed";
    }
  }
  // The system's own set-up process builds the shared library and the
  // project directories (searchable by everyone, writable by daemons).
  auto init = kernel_.processes().CreateProcess(
      mks::Subject{mks::Principal{"Initializer", "SysDaemon"}, mks::Label::SystemLow(), 4});
  if (!init.ok()) {
    return "initializer process";
  }
  mks::ProcContext& ictx = *kernel_.processes().Context(*init);
  mks::Acl world;
  world.Add(mks::AclEntry{"*", "SysDaemon", mks::AccessModes::RWE()});
  world.Add(mks::AclEntry{"*", "*", mks::AccessModes::R()});
  for (int p = 0; p < kProjects; ++p) {
    if (!walker_.CreateDirectories(ictx, ">udd>" + Project(p), world, mks::Label::SystemLow())
             .ok()) {
      return "project directories";
    }
  }
  auto lib = walker_.CreateSegment(ictx, ">lib>libc", world, mks::Label::SystemLow());
  auto lib_segno = lib.ok() ? kernel_.gates().Initiate(ictx, *lib) : lib.status();
  if (!lib_segno.ok()) {
    return "library segment";
  }
  for (uint32_t page = 0; page < kLibPages; ++page) {
    for (uint32_t word = 0; word < kLibWords; ++word) {
      if (!kernel_.gates().Write(ictx, *lib_segno, Offset(page, word), LibValue(page, word))
               .ok()) {
        return "library population";
      }
    }
  }
  if (!kernel_.gates().Terminate(ictx, *lib_segno).ok() ||
      !kernel_.processes().DestroyProcess(*init).ok()) {
    return "initializer teardown";
  }
  // Warm-up: every user's first session creates the home directory and the
  // home segment, so the measured phase sees repeat logins, as in P18.
  for (int u = 0; u < kTerminals; ++u) {
    const mks::Principal who{Person(u), Project(u)};
    auto pid = service_->Login(who, Password(u), mks::Label(0, 0));
    if (!pid.ok()) {
      return "warm-up login";
    }
    mks::ProcContext& ctx = *kernel_.processes().Context(*pid);
    mks::Acl acl;
    acl.Add(mks::AclEntry{who.person, who.project, mks::AccessModes::RW()});
    auto work = walker_.CreateSegment(ctx, HomePath(u) + ">work", acl, mks::Label::SystemLow());
    auto segno = work.ok() ? kernel_.gates().Initiate(ctx, *work) : work.status();
    if (!segno.ok()) {
      return "home segment";
    }
    for (uint32_t page = 0; page < kWorkPages; ++page) {
      for (uint32_t word = 0; word < kWorkWords; ++word) {
        const mks::Word value = terms_[static_cast<size_t>(u)].rng.Next() & 0xffffffffu;
        if (!kernel_.gates().Write(ctx, *segno, Offset(page, word), value).ok()) {
          return "home population";
        }
        Shadow(u, page, word) = value;
      }
    }
    if (!kernel_.gates().Terminate(ctx, *segno).ok() || !service_->Logout(*pid).ok()) {
      return "warm-up logout";
    }
  }
  bills0_ = ParseReport(service_->AccountingReport());
  owed_.assign(kTerminals, Owed{});
  return "";
}

// Sends `line` from terminal `t` as frames and reads it back through the
// demux and the terminal protocol.
bool RushHour::Deliver(int t, const std::string& line) {
  SpanScope span(spans_, "tty.line", Layer::kNet, static_cast<uint64_t>(t));
  Terminal& term = terms_[static_cast<size_t>(t)];
  const mks::SubchannelId sub(static_cast<uint16_t>(t));
  const std::string text = line + "\n";
  for (size_t i = 0; i < text.size(); i += kCharsPerFrame) {
    mks::Frame frame;
    frame.subchannel = sub;
    frame.type = mks::frame_type::kData;
    frame.seq = term.seq++;
    for (size_t j = i; j < text.size() && j < i + kCharsPerFrame; ++j) {
      frame.payload.push_back(static_cast<uint8_t>(text[j]));
    }
    channel_.Inject(std::move(frame));
  }
  demux_.Pump();
  tty_.PumpLine(sub);
  auto got = tty_.ReadLine(sub);
  return got.has_value() && *got == line;
}

bool RushHour::Command(int t) {
  Terminal& term = terms_[static_cast<size_t>(t)];
  mks::ProcContext* ctx = kernel_.processes().Context(term.pid);
  if (ctx == nullptr) {
    return false;
  }
  mks::KernelGates& gates = kernel_.gates();
  const uint64_t req = static_cast<uint64_t>(t);
  auto open = [&](const std::string& dir_path, const char* leaf) -> mks::Result<mks::Segno> {
    mks::Result<mks::EntryId> dir = mks::Status(mks::Code::kInternal, "unset");
    {
      SpanScope span(spans_, "walk", Layer::kFs, req);
      dir = walker_.Walk(*ctx, dir_path);
    }
    if (!dir.ok()) {
      return dir.status();
    }
    mks::Result<mks::EntryId> entry = mks::Status(mks::Code::kInternal, "unset");
    {
      SpanScope span(spans_, "search", Layer::kGates, req);
      entry = gates.Search(*ctx, *dir, leaf);
    }
    if (!entry.ok()) {
      return entry.status();
    }
    SpanScope span(spans_, "initiate", Layer::kGates, req);
    return gates.Initiate(*ctx, *entry);
  };
  auto lib = open(">lib", "libc");
  auto work = open(HomePath(t), "work");
  if (!lib.ok() || !work.ok()) {
    for (const auto* segno : {&lib, &work}) {
      if (segno->ok()) {
        (void)gates.Terminate(*ctx, **segno);
      }
    }
    return false;
  }
  bool ok = true;
  const uint64_t reads = 2 + term.rng.NextBelow(5);
  for (uint64_t i = 0; i < reads && ok; ++i) {
    const uint32_t page = static_cast<uint32_t>(term.rng.NextBelow(kLibPages));
    const uint32_t word = static_cast<uint32_t>(term.rng.NextBelow(kLibWords));
    SpanScope span(spans_, "read", Layer::kGates, req);
    auto value = gates.Read(*ctx, *lib, Offset(page, word));
    ok = value.ok();
    if (ok && *value != LibValue(page, word) && op_error_.empty()) {
      op_error_ = "library word read back wrong";
    }
  }
  const uint64_t writes = 1 + term.rng.NextBelow(4);
  uint32_t last_page = 0;
  uint32_t last_word = 0;
  for (uint64_t i = 0; i < writes && ok; ++i) {
    last_page = static_cast<uint32_t>(term.rng.NextBelow(kWorkPages));
    last_word = static_cast<uint32_t>(term.rng.NextBelow(kWorkWords));
    const mks::Word value = term.rng.Next() & 0xffffffffu;
    SpanScope span(spans_, "write", Layer::kGates, req);
    ok = gates.Write(*ctx, *work, Offset(last_page, last_word), value).ok();
    if (ok) {
      Shadow(t, last_page, last_word) = value;
    }
  }
  if (ok) {
    SpanScope span(spans_, "read", Layer::kGates, req);
    auto value = gates.Read(*ctx, *work, Offset(last_page, last_word));
    ok = value.ok();
    if (ok && *value != Shadow(t, last_page, last_word) && op_error_.empty()) {
      op_error_ = "home word read back wrong";
    }
  }
  kernel_.ctx().cost.Charge(mks::CodeStyle::kOptimized, ExpCycles(term.rng, kComputeMean));
  for (mks::Segno segno : {*work, *lib}) {
    SpanScope span(spans_, "terminate", Layer::kGates, req);
    ok = gates.Terminate(*ctx, segno).ok() && ok;
  }
  return ok;
}

bool RushHour::Transact(int t) {
  SpanScope root(spans_, "transaction", Layer::kBench, static_cast<uint64_t>(t));
  Terminal& term = terms_[static_cast<size_t>(t)];
  switch (term.next) {
    case Next::kLogin: {
      const std::string line = "login " + Person(t) + " " + Project(t) + " " + Password(t);
      if (!Deliver(t, line)) {
        return false;
      }
      mks::Result<mks::ProcessId> pid = mks::Status(mks::Code::kInternal, "unset");
      {
        SpanScope span(spans_, "login", Layer::kAnswering, static_cast<uint64_t>(t));
        pid = service_->Login(mks::Principal{Person(t), Project(t)}, Password(t),
                              mks::Label(0, 0));
      }
      if (!pid.ok()) {
        return false;  // refused: the terminal thinks and dials again
      }
      term.pid = *pid;
      term.commands_left = 2 + static_cast<int>(term.rng.NextBelow(5));
      term.next = Next::kCommand;
      return true;
    }
    case Next::kCommand: {
      const bool ok = Deliver(t, "run prog" + std::to_string(term.rng.NextBelow(8))) &&
                      Command(t);
      if (--term.commands_left == 0) {
        term.next = Next::kLogout;
      }
      return ok;
    }
    case Next::kLogout: {
      const bool delivered = Deliver(t, "logout");
      return Logout(t) && delivered;
    }
  }
  return false;
}

// Ends terminal `t`'s session and notes what its bill must add.
bool RushHour::Logout(int t) {
  Terminal& term = terms_[static_cast<size_t>(t)];
  term.next = Next::kLogin;
  const auto before = service_->BillFor(term.pid);
  const Cycles called = kernel_.clock().now();
  mks::Status st;
  {
    SpanScope span(spans_, "logout", Layer::kAnswering, static_cast<uint64_t>(t));
    st = service_->Logout(term.pid);
  }
  if (!before.ok() || !st.ok()) {
    return false;
  }
  Owed& owed = owed_[static_cast<size_t>(t)];
  ++owed.sessions;
  owed.cpu_cycles += before->cpu_cycles;
  owed.ops += before->ops;
  owed.connect_lo += before->connect_time;
  owed.connect_hi += before->connect_time + (kernel_.clock().now() - called);
  return true;
}

std::string RushHour::Verify() {
  if (!op_error_.empty()) {
    return op_error_;
  }
  // Every session that is still open logs out.
  for (int t = 0; t < kTerminals; ++t) {
    if (terms_[static_cast<size_t>(t)].next != Next::kLogin && !Logout(t)) {
      return "drain logout failed";
    }
  }
  if (service_->active_sessions() != 0 ||
      kernel_.metrics().Get("answering.logins") != kernel_.metrics().Get("answering.logouts")) {
    return "sessions do not balance";
  }
  // The report bills per principal.  Since warm-up, each principal's bill
  // must have grown by exactly the processor time and ops of the sessions
  // it logged out, and by a connect time within their bounds: a lost,
  // doubled or misfiled session bill fails this.
  const auto bills = ParseReport(service_->AccountingReport());
  if (bills.size() != static_cast<size_t>(kTerminals)) {
    return "accounting report has " + std::to_string(bills.size()) + " bills, expected " +
           std::to_string(kTerminals);
  }
  uint64_t sessions = 0;
  for (int u = 0; u < kTerminals; ++u) {
    const std::string who = mks::Principal{Person(u), Project(u)}.ToString();
    const auto now = bills.find(who);
    const auto then = bills0_.find(who);
    if (now == bills.end() || then == bills0_.end()) {
      return "accounting report has no bill for " + who;
    }
    const Owed& owed = owed_[static_cast<size_t>(u)];
    const Cycles connect = now->second.connect_time - then->second.connect_time;
    if (now->second.cpu_cycles - then->second.cpu_cycles != owed.cpu_cycles ||
        now->second.ops - then->second.ops != owed.ops || connect < owed.connect_lo ||
        connect > owed.connect_hi) {
      return "the bill of " + who + " does not match its " + std::to_string(owed.sessions) +
             " sessions";
    }
    sessions += owed.sessions;
  }
  if (sessions == 0) {
    return "no session ended after warm-up";
  }
  // Read back every home-segment word from a fresh session of its owner.
  for (int u = 0; u < kTerminals; ++u) {
    auto pid = service_->Login(mks::Principal{Person(u), Project(u)}, Password(u),
                               mks::Label(0, 0));
    if (!pid.ok()) {
      return "read-back login failed";
    }
    mks::ProcContext& ctx = *kernel_.processes().Context(*pid);
    auto segno = walker_.Initiate(ctx, HomePath(u) + ">work");
    if (!segno.ok()) {
      return "read-back initiate failed";
    }
    for (uint32_t page = 0; page < kWorkPages; ++page) {
      for (uint32_t word = 0; word < kWorkWords; ++word) {
        auto value = kernel_.gates().Read(ctx, *segno, Offset(page, word));
        if (!value.ok() || *value != Shadow(u, page, word)) {
          return "home segment of " + Person(u) + " lost a write";
        }
      }
    }
    if (!kernel_.gates().Terminate(ctx, *segno).ok() || !service_->Logout(*pid).ok()) {
      return "read-back logout failed";
    }
  }
  if (!kernel_.AuditIntegrity().empty()) {
    return "integrity audit: " + kernel_.AuditIntegrity().front();
  }
  if (!kernel_.Shutdown().ok()) {
    return "shutdown failed";
  }
  return "";
}

RunResult RushHour::Run(const Stopwatch& setup) {
  RunResult out;
  out.cpus = kCpus;
  out.error = SetUp();
  out.setup_s = setup.Seconds();
  if (!out.error.empty()) {
    return out;
  }
  const MeasuredPhase phase(kernel_, walker_);
  std::vector<Cycles> first_due;
  for (Terminal& term : terms_) {
    first_due.push_back(phase.start() + ExpCycles(term.rng, kThinkMean));
  }
  RunClosedLoop(
      kernel_, first_due, kTransactions,
      [&](uint32_t t) { return Transact(static_cast<int>(t)); },
      [&](uint32_t t) {
        Terminal& term = terms_[t];
        return ExpCycles(term.rng, term.next == Next::kLogin ? kThinkMean : kTypeMean);
      },
      &out);
  phase.Finish(&out);
  out.spans = spans_.Take();
  out.Seal();
  out.error = Verify();
  return out;
}

}  // namespace

RunResult RunRushHour(uint64_t seed, bool trace) {
  const Stopwatch setup;
  return RushHour(seed, trace).Run(setup);
}

}  // namespace perfbench

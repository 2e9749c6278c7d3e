// Random linear network coding broadcast over GF(2^8) (Haas & Nikolov,
// "Towards Optimal Broadcast in Wireless Networks").
//
// The source expands the 64-bit payload into a generation of
// `kRlncGeneration` source symbols (s_0 = payload, s_i = splitmix(payload
// ^ i), so a decode is self-verifying) and injects `rlncSourceBudget`
// random coded packets. Every relay that holds at least one innovative
// packet re-codes: it transmits `rlncRelayBudget` fresh random
// combinations of its own basis rows, spread over contention backoffs. A
// node is served once its decoder reaches full rank and the recovered
// generation passes the s_i = splitmix(s_0 ^ i) consistency check.
//
// Wire format: the 4 coding coefficients (over the source basis) ride in
// Message::sequence, one byte per source symbol; the coded 64-bit symbol
// rides in Message::payload. All coefficient and backoff draws come from
// per-node RNGs seeded off the shared scheme seed, so a run is a pure
// function of (graph, source, seed) — the seed-determinism oracle the
// fuzz battery checks.

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "broadcast/gf256.hpp"
#include "broadcast/runner_detail.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsn {

namespace {

/// Generation size: 4 coefficient bytes must fit Message::sequence.
constexpr int kRlncGeneration = 4;

/// Derives source symbol i from the payload (splitmix64 finalizer); the
/// redundancy makes every decode internally verifiable.
constexpr std::uint64_t rlncSourceSymbol(std::uint64_t payload, int i) {
  if (i == 0) return payload;
  std::uint64_t z = payload ^ static_cast<std::uint64_t>(i);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint32_t packCoef(const gf256::CoefRow& coef) {
  std::uint32_t packed = 0;
  for (int i = 0; i < kRlncGeneration; ++i)
    packed |= static_cast<std::uint32_t>(coef[static_cast<std::size_t>(i)])
              << (8 * i);
  return packed;
}

gf256::CoefRow unpackCoef(std::uint32_t packed) {
  gf256::CoefRow coef{};
  for (int i = 0; i < kRlncGeneration; ++i)
    coef[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((packed >> (8 * i)) & 0xFF);
  return coef;
}

/// RLNC's swarm. Each node holds a GF(2^8) decoder and an RNG seeded
/// `seed ^ (v * salt)`; the source starts with the whole generation and
/// `rlncSourceBudget` transmissions due from round 0, and a relay gets
/// `rlncRelayBudget` of them with its first innovative row. Every
/// transmission is a fresh random combination of the node's basis rows,
/// the next one after a uniform backoff in [1, window]. A node settles
/// once its decoder reaches full rank: served when the recovered
/// generation passes the consistency check, failed otherwise.
class RlncSwarm final : public detail::FlatSwarm {
 public:
  RlncSwarm(std::size_t nodeCount, NodeId source, std::uint64_t payload,
            Round maxListen, const ArenaTuning& arena)
      : FlatSwarm(nodeCount, maxListen),
        window_(arena.contentionWindow),
        relayBudget_(arena.rlncRelayBudget),
        sourcePayload_(payload),
        decoder_(nodeCount, gf256::Decoder(kRlncGeneration)),
        txRound_(nodeCount, -1),
        txRemaining_(nodeCount, 0) {
    rng_.reserve(nodeCount);
    for (std::uint64_t v = 0; v < nodeCount; ++v)
      rng_.emplace_back(arena.seed ^ (v * 0xD6E8FEB86659FD93ull));
    // The source holds the generation in the clear: identity rows.
    for (int i = 0; i < kRlncGeneration; ++i) {
      gf256::CoefRow e{};
      e[static_cast<std::size_t>(i)] = 1;
      decoder_[source].insert(e, rlncSourceSymbol(payload, i));
    }
    addHolder(source, true, payload);
    txRemaining_[source] = arena.rlncSourceBudget;
    txRound_[source] = 0;  // first coded packet goes out immediately
  }

  Action onRound(NodeId v, Round r) override {
    if (txRound_[v] >= 0 && r == txRound_[v]) return transmitCoded(v, r);
    if (!settled(v)) return listenWithinBudget(r);
    return Action::sleep();
  }

  void onReceive(NodeId v, const Message& m, Round r, Channel) override {
    if (m.kind != MsgKind::kData) return;
    if (settled(v)) return;
    gf256::Decoder& dec = decoder_[v];
    if (!dec.insert(unpackCoef(m.sequence), m.payload)) return;
    if (txRound_[v] < 0 && txRemaining_[v] == 0 && relayBudget_ > 0 &&
        dec.rank() == 1) {
      // First innovative row: start this relay's recoding schedule.
      txRemaining_[v] = relayBudget_;
      txRound_[v] = r + 1 + backoff(v);
    }
    tryDecode(v, r);
  }

  bool isDone(NodeId v) const override {
    return settled(v) && txRound_[v] < 0;
  }

  Round nextWake(NodeId v, Round now) const override {
    if (txRound_[v] >= 0) {
      Round wake = txRound_[v] > now ? txRound_[v] : now + 1;
      if (!settled(v) && now + 1 < maxListen_)
        wake = std::min(wake, now + 1);  // still collecting rank: listen
      return wake;
    }
    if (!settled(v)) return nextWakeWithinBudget(now);
    return kNoWake;
  }

  std::size_t decodeFailures() const override { return decodeFailures_; }

 private:
  /// Full rank reached but the generation failed the consistency check
  /// (only a field/elimination bug can cause this).
  static constexpr std::uint8_t kDecodeFailed = 2;

  bool settled(NodeId v) const {
    return (flags_[v] & (kHasPayload | kDecodeFailed)) != 0;
  }

  Round backoff(NodeId v) {
    return static_cast<Round>(
        rng_[v].uniform(static_cast<std::uint64_t>(window_)));
  }

  Action transmitCoded(NodeId v, Round r) {
    // Fresh random combination of the rows this node holds. The combined
    // coding vector is zero iff every weight is zero (the stored rows are
    // linearly independent), so force one weight when that happens.
    const gf256::Decoder& dec = decoder_[v];
    gf256::CoefRow coef{};
    std::uint64_t symbol = 0;
    bool anyWeight = false;
    int firstUsed = -1;
    for (int col = 0; col < kRlncGeneration; ++col) {
      if (!dec.pivotUsed(col)) continue;
      if (firstUsed < 0) firstUsed = col;
      const auto w = static_cast<std::uint8_t>(rng_[v].uniform(256));
      if (w == 0) continue;
      anyWeight = true;
      const gf256::CoefRow& row = dec.pivotCoef(col);
      for (int j = 0; j < kRlncGeneration; ++j)
        coef[static_cast<std::size_t>(j)] = gf256::add(
            coef[static_cast<std::size_t>(j)],
            gf256::mul(row[static_cast<std::size_t>(j)], w));
      symbol ^= gf256::scaleSymbol(dec.pivotSymbol(col), w);
    }
    if (!anyWeight && firstUsed >= 0) {
      coef = dec.pivotCoef(firstUsed);
      symbol = dec.pivotSymbol(firstUsed);
    }

    --txRemaining_[v];
    txRound_[v] = txRemaining_[v] > 0 ? r + 1 + backoff(v) : -1;

    Message m;
    m.kind = MsgKind::kData;
    m.sender = v;
    m.sequence = packCoef(coef);
    m.payload = symbol;
    return Action::transmit(m);
  }

  void tryDecode(NodeId v, Round r) {
    const gf256::Decoder& dec = decoder_[v];
    if (!dec.complete()) return;
    std::array<std::uint64_t, gf256::kMaxGeneration> symbols{};
    dec.solve(symbols);
    for (int i = 1; i < kRlncGeneration; ++i) {
      if (symbols[static_cast<std::size_t>(i)] !=
          rlncSourceSymbol(symbols[0], i)) {
        flags_[v] |= kDecodeFailed;
        ++decodeFailures_;
        return;
      }
    }
    takePayload(v, symbols[0], r);
    // Decode-completeness oracle input: a full-rank decode must yield the
    // injected generation. Any mismatch is a field/elimination bug, never
    // an acceptable lossy outcome.
    if (symbols[0] != sourcePayload_) ++decodeFailures_;
  }

  int window_;
  int relayBudget_;
  std::uint64_t sourcePayload_;
  std::vector<gf256::Decoder> decoder_;
  std::vector<Rng> rng_;
  std::vector<Round> txRound_;  ///< next coded transmission (-1 = none)
  std::vector<int> txRemaining_;
  std::size_t decodeFailures_ = 0;
};

}  // namespace

namespace detail {

std::unique_ptr<FlatSwarm> makeRlncSwarm(const Graph& g, NodeId source,
                                         std::uint64_t payload,
                                         Round maxListen,
                                         const ProtocolOptions& options) {
  const ArenaTuning& a = options.arena;
  DSN_REQUIRE(a.rlncSourceBudget >= 1, "RLNC source budget must be >= 1");
  DSN_REQUIRE(a.rlncRelayBudget >= 0, "RLNC relay budget must be >= 0");
  return std::make_unique<RlncSwarm>(g.size(), source, payload, maxListen,
                                     a);
}

}  // namespace detail

}  // namespace dsn

#pragma once

/// \file chaos.hpp
/// Seed-deterministic chaos injection for the multi-process campaign
/// backend. Where `hetero::resil` injects *simulated* faults into the
/// virtual-clock world, chaos injection kills real OS processes: a worker
/// picked by the plan `_exit`s, SIGKILLs itself, or stalls silently until
/// the supervisor's heartbeat deadline reaps it. That exercises the whole
/// supervision loop — waitpid status decoding, re-dispatch, backoff,
/// quarantine — under ASan in CI.
///
/// Like `resil::FaultPlan`, every decision is a pure splitmix64 hash of
/// (seed, kind salt, job key hash, attempt): no RNG state, no ordering
/// sensitivity, and the *attempt* in the tuple means a job that killed its
/// worker once usually survives the retry — only genuinely unlucky jobs
/// reach the quarantine threshold.
///
/// Spec string (the `HETERO_CHAOS` environment variable):
///
///   crash:0.05,hang:0.05,exit:0.05
///
/// Any subset of the three `kind:probability` pairs, comma-separated.

#include <cstdint>
#include <string>

namespace hetero::proc {

struct ChaosSpec {
  /// P(worker SIGKILLs itself at job start) per (job, attempt).
  double crash_p = 0.0;
  /// P(worker stalls mid-experiment — after compute, before reporting).
  double hang_p = 0.0;
  /// P(worker _exit(3)s at job start).
  double exit_p = 0.0;

  bool any() const { return crash_p > 0.0 || hang_p > 0.0 || exit_p > 0.0; }
};

/// Parses a `HETERO_CHAOS` spec string. Throws hetero::Error on malformed
/// input (unknown kind, probability outside [0, 1]). An empty string is an
/// all-zero spec.
ChaosSpec parse_chaos_spec(const std::string& spec);

/// The spec from the HETERO_CHAOS environment variable, or all-zero when
/// unset.
ChaosSpec chaos_spec_from_env();

/// Stable 64-bit hash of a job's cache key: the `key_hash` chaos_decide
/// is called with, and the hash that pins the job to its worker slot
/// (std::hash is not stable across runs, so it cannot serve).
std::uint64_t job_key_hash(const std::string& cache_key);

enum class ChaosAction { kNone, kCrash, kHang, kExit };

/// The planned action for one (job, attempt) cell. Deterministic in
/// (spec, seed, key_hash, attempt); kinds are checked crash, exit, hang in
/// that order with independent salts.
ChaosAction chaos_decide(const ChaosSpec& spec, std::uint64_t seed,
                         std::uint64_t key_hash, int attempt);

/// Exit status a chaos `exit` action uses — distinctive in waitpid status
/// so the quarantine reason names the cause.
inline constexpr int kChaosExitStatus = 3;

}  // namespace hetero::proc

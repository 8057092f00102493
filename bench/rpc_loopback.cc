// Loopback RPC bench: the same federation and workload executed (a)
// in-process and (b) over real framed TCP on 127.0.0.1, with one
// RpcProviderServer per provider. Reports the real bytes moved on the
// wire next to SimNetwork's charged bytes (they must match: the
// simulator charges the codec's framed sizes) and the in-process vs
// loopback latency. It also measures the host's RPC roof: the median
// round trip of a raw framed ping-pong over 127.0.0.1 through the same
// TcpConnection codec (loopback_rtt_us_p50), next to the median of one
// call through RemoteEndpoint and RpcProviderServer (rpc_call_us_p50,
// repeated PublishSummary on one open session). Emits
// BENCH_rpc_loopback.json.
//
//   --rows=N --providers=P --queries=M --seed=S --threads=T

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "rpc/remote_endpoint.h"
#include "rpc/server.h"
#include "rpc/transport.h"
#include "rpc/wire.h"

namespace fedaqp {
namespace {

/// Timed round trips behind each RPC roof median.
constexpr size_t kPings = 2000;

/// Median of `rounds` timed calls of `round_trip` (after rounds / 10
/// untimed warm-up calls), in microseconds; negative when a call fails.
template <typename RoundTrip>
double MedianMicros(size_t rounds, RoundTrip round_trip) {
  for (size_t i = 0; i < rounds / 10; ++i) {
    if (!round_trip()) return -1.0;
  }
  std::vector<double> micros;
  micros.reserve(rounds);
  for (size_t i = 0; i < rounds; ++i) {
    Stopwatch timer;
    if (!round_trip()) return -1.0;
    micros.push_back(timer.ElapsedMicros());
  }
  return bench::Percentile50(std::move(micros));
}

/// Median round trip of a raw framed ping-pong over 127.0.0.1: an echo
/// thread sends every frame straight back, so this is the floor under
/// any RPC made through the same codec on this host.
double LoopbackRttMicros(size_t rounds, const ByteWriter& ping) {
  Result<TcpListener> listener = TcpListener::Listen(0);
  if (!listener.ok()) return -1.0;
  std::thread echo([&listener] {
    Result<TcpConnection> peer = listener->Accept();
    if (!peer.ok()) return;
    for (;;) {
      Result<RpcFrame> frame = peer->ReceiveFrame();
      if (!frame.ok()) return;  // The client closed.
      ByteWriter payload;
      payload.PutRaw(frame->payload.data(), frame->payload.size());
      if (!peer->SendFrame(frame->method, payload).ok()) return;
    }
  });
  Result<TcpConnection> client =
      TcpConnection::Connect("127.0.0.1", listener->port());
  if (!client.ok()) {
    listener->Interrupt();
    echo.join();
    return -1.0;
  }
  const double rtt = MedianMicros(rounds, [&] {
    return client->SendFrame(RpcMethod::kPublishSummary, ping).ok() &&
           client->ReceiveFrame().ok();
  });
  client->Close();
  echo.join();
  return rtt;
}

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const size_t rows = flags.GetInt("rows", 40000);
  const size_t providers = flags.GetInt("providers", 4);
  const size_t num_queries = flags.GetInt("queries", 8);
  const uint64_t seed = flags.GetInt("seed", 1);
  const size_t threads = flags.GetInt("threads", 1);

  FederationConfig protocol;
  protocol.per_query_budget = {1.0, 1e-3};
  protocol.sampling_rate = 0.2;
  protocol.mode = ReleaseMode::kLocalDp;
  protocol.num_threads = threads;
  std::unique_ptr<Federation> fed = bench::OpenPaperFederation(
      bench::Dataset::kAdult, rows, providers, seed, protocol);
  if (!fed) return 1;

  Result<std::vector<RangeQuery>> workload =
      bench::PaperWorkload(fed.get(), num_queries, 2, Aggregation::kCount,
                           seed + 11);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }

  // ---- In-process run.
  Result<QueryOrchestrator> local = bench::Orchestrate(fed.get(), protocol);
  if (!local.ok()) {
    std::fprintf(stderr, "orchestrator: %s\n",
                 local.status().ToString().c_str());
    return 1;
  }
  std::vector<double> local_estimates;
  uint64_t charged_bytes = 0;
  uint64_t charged_messages = 0;
  Stopwatch local_timer;
  for (const RangeQuery& q : *workload) {
    Result<QueryResponse> resp = bench::ExecuteQuery(*local, q);
    if (!resp.ok()) {
      std::fprintf(stderr, "local query: %s\n",
                   resp.status().ToString().c_str());
      return 1;
    }
    local_estimates.push_back(resp->estimate);
    charged_bytes += resp->breakdown.network_bytes;
    charged_messages += resp->breakdown.network_messages;
  }
  const double local_seconds = local_timer.ElapsedSeconds();

  // ---- Loopback run: real processes-over-TCP topology, same machine.
  Result<std::vector<std::unique_ptr<RpcProviderServer>>> servers =
      fed->Serve(0);
  if (!servers.ok()) {
    std::fprintf(stderr, "serve: %s\n", servers.status().ToString().c_str());
    return 1;
  }
  std::vector<std::string> host_ports;
  for (const auto& s : *servers) {
    host_ports.push_back("127.0.0.1:" + std::to_string(s->port()));
  }
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> remote =
      RemoteEndpoint::ConnectAll(host_ports);
  if (!remote.ok()) {
    std::fprintf(stderr, "connect: %s\n", remote.status().ToString().c_str());
    return 1;
  }
  std::vector<RemoteEndpoint*> raw;
  for (const auto& e : *remote) {
    raw.push_back(static_cast<RemoteEndpoint*>(e.get()));
  }
  uint64_t handshake_bytes = 0;
  for (auto* e : raw) handshake_bytes += e->bytes_sent() + e->bytes_received();

  FederationConfig remote_protocol = protocol;
  remote_protocol.network.latency_seconds = 1e-5;
  Result<QueryOrchestrator> over_wire =
      QueryOrchestrator::CreateFromEndpoints(std::move(remote).value(),
                                             remote_protocol);
  if (!over_wire.ok()) {
    std::fprintf(stderr, "remote orchestrator: %s\n",
                 over_wire.status().ToString().c_str());
    return 1;
  }
  size_t identical = 0;
  Stopwatch wire_timer;
  for (size_t i = 0; i < workload->size(); ++i) {
    Result<QueryResponse> resp =
        bench::ExecuteQuery(*over_wire, (*workload)[i]);
    if (!resp.ok()) {
      std::fprintf(stderr, "loopback query: %s\n",
                   resp.status().ToString().c_str());
      return 1;
    }
    if (resp->estimate == local_estimates[i]) ++identical;
  }
  const double wire_seconds = wire_timer.ElapsedSeconds();
  uint64_t real_bytes = 0;
  for (auto* e : raw) real_bytes += e->bytes_sent() + e->bytes_received();
  real_bytes -= handshake_bytes;

  // The RPC roof: one plain call on its own connection against a raw
  // ping-pong carrying the same request frame.
  const SummaryRequest summary{1, 0.5};
  ByteWriter ping;
  EncodeSummaryRequest(summary, &ping);
  const double loopback_rtt_us = LoopbackRttMicros(kPings, ping);
  Result<std::shared_ptr<RemoteEndpoint>> caller =
      RemoteEndpoint::Connect("127.0.0.1", (*servers)[0]->port());
  if (!caller.ok() ||
      !(*caller)->Cover(CoverRequest{summary.query_id, 7, (*workload)[0]})
           .ok()) {
    std::fprintf(stderr, "rpc call probe: cannot open a session\n");
    return 1;
  }
  const double rpc_call_us = MedianMicros(
      kPings, [&] { return (*caller)->PublishSummary(summary).ok(); });
  (*caller)->EndQuery(summary.query_id);
  if (loopback_rtt_us < 0 || rpc_call_us < 0) {
    std::fprintf(stderr, "rpc roof probe failed\n");
    return 1;
  }

  const bool bytes_match = real_bytes == charged_bytes;
  const bool bit_identical = identical == workload->size();
  std::printf(
      "rpc loopback: %zu providers, %zu queries\n"
      "  in-process   %8.2f ms  (%.2f ms/query)\n"
      "  loopback TCP %8.2f ms  (%.2f ms/query)\n"
      "  charged bytes %10llu\n"
      "  real bytes    %10llu  (%s; handshake %llu excluded)\n"
      "  bit-identical estimates: %zu/%zu\n"
      "  loopback rtt p50 %8.1f us  (raw framed ping-pong, %zu rounds)\n"
      "  rpc call p50     %8.1f us  (PublishSummary via RemoteEndpoint)\n",
      providers, workload->size(), local_seconds * 1e3,
      local_seconds * 1e3 / workload->size(), wire_seconds * 1e3,
      wire_seconds * 1e3 / workload->size(),
      static_cast<unsigned long long>(charged_bytes),
      static_cast<unsigned long long>(real_bytes),
      bytes_match ? "MATCH" : "MISMATCH",
      static_cast<unsigned long long>(handshake_bytes), identical,
      workload->size(), loopback_rtt_us, kPings, rpc_call_us);

  bench::BenchJson json("rpc_loopback");
  json.Set("rows", rows);
  json.Set("providers", providers);
  json.Set("queries", workload->size());
  json.Set("threads", threads);
  json.Set("in_process_seconds", local_seconds);
  json.Set("loopback_seconds", wire_seconds);
  json.Set("loopback_overhead_x",
           local_seconds > 0 ? wire_seconds / local_seconds : 0.0);
  json.Set("charged_bytes", charged_bytes);
  json.Set("charged_messages", charged_messages);
  json.Set("real_wire_bytes", real_bytes);
  json.Set("handshake_bytes", handshake_bytes);
  json.Set("bytes_match", bytes_match ? 1 : 0);
  json.Set("bit_identical", bit_identical ? 1 : 0);
  json.Set("loopback_rtt_us_p50", loopback_rtt_us);
  json.Set("rpc_call_us_p50", rpc_call_us);
  json.Write();

  // Fail loudly if the wire diverged from the simulation: CI runs this.
  return bytes_match && bit_identical ? 0 : 2;
}

}  // namespace
}  // namespace fedaqp

int main(int argc, char** argv) { return fedaqp::Run(argc, argv); }

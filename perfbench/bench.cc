// End-to-end wall-clock benchmark of BufferDB (see README.md in this
// directory). One process = one client running one workload in a closed
// loop: a query starts only after the previous one returned its last row.
// The CPU simulator stays detached (ExecContext::cpu == nullptr).
//
// Every query goes through the public entry points from SQL text to the
// last row: sql::Binder::BindSql, PhysicalPlanner::CreatePlan,
// PlanRefiner::Refine and ExecutePlan / ExecutePlanBatched. The traced mode
// additionally wraps the plan with perf::ProfilePlan and records one span
// per layer boundary.
//
// The process prints one JSON line with raw samples; run.py aggregates the
// lines of several processes into the benchmark's metrics.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "core/plan_refiner.h"
#include "exec/operator.h"
#include "parallel/agg_merge.h"
#include "parallel/exchange.h"
#include "parallel/thread_pool.h"
#include "perf/profiled_operator.h"
#include "perf/query_profile.h"
#include "plan/physical_planner.h"
#include "sim/code_layout.h"
#include "sql/binder.h"
#include "tpch/tpch_gen.h"

namespace {

using bufferdb::Catalog;
using bufferdb::ExecContext;
using bufferdb::Operator;
using bufferdb::OperatorPtr;
using bufferdb::Value;
using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads.

struct NamedSql {
  const char* name;
  const char* sql;
};

// The queries of bench/bench_table5_tpch.cc (Q10/Q12/Q14 are the SQL-subset
// variants documented in EXPERIMENTS.md).
const NamedSql kTpchQueries[] = {
    {"q1",
     "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
     "SUM(l_extendedprice) AS sum_base_price, "
     "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
     "SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, "
     "AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, "
     "AVG(l_discount) AS avg_disc, COUNT(*) AS count_order "
     "FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' "
     "GROUP BY l_returnflag, l_linestatus "
     "ORDER BY l_returnflag, l_linestatus"},
    {"q3",
     "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue "
     "FROM customer, orders, lineitem "
     "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
     "AND c_mktsegment = 'BUILDING' AND o_orderdate < DATE '1995-03-15' "
     "AND l_shipdate > DATE '1995-03-15' "
     "GROUP BY l_orderkey ORDER BY revenue DESC LIMIT 10"},
    {"q6",
     "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
     "WHERE l_shipdate >= DATE '1994-01-01' "
     "AND l_shipdate < DATE '1995-01-01' "
     "AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24"},
    {"q10",
     "SELECT c_custkey, c_name, SUM(l_extendedprice * (1 - l_discount)) "
     "AS revenue FROM customer, orders, lineitem "
     "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
     "AND o_orderdate >= DATE '1993-10-01' "
     "AND o_orderdate < DATE '1994-01-01' AND l_returnflag = 'R' "
     "GROUP BY c_custkey, c_name ORDER BY revenue DESC LIMIT 20"},
    {"q12",
     "SELECT l_shipmode, COUNT(*) AS line_count FROM orders, lineitem "
     "WHERE o_orderkey = l_orderkey "
     "AND (l_shipmode = 'MAIL' OR l_shipmode = 'SHIP') "
     "AND l_receiptdate >= DATE '1994-01-01' "
     "AND l_receiptdate < DATE '1995-01-01' "
     "GROUP BY l_shipmode ORDER BY l_shipmode"},
    {"q14",
     "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue, "
     "COUNT(*) AS lines FROM lineitem, part "
     "WHERE l_partkey = p_partkey AND l_shipdate >= DATE '1995-09-01' "
     "AND l_shipdate < DATE '1995-10-01'"},
};
constexpr size_t kNumTpch = sizeof(kTpchQueries) / sizeof(kTpchQueries[0]);

// Short selective queries of the lookups stream. Each template has one
// answer row, computed independently from Table::view rows at set-up.
const char* const kLookupNames[] = {"point_agg", "order_join", "order_range"};
constexpr size_t kNumLookupKinds = 3;
// Orders per order_range query (consecutive existing keys).
constexpr size_t kRangeOrders = 8;
// Lookups after every round of TPC-H pairs. Interleaving spreads them over
// the whole run, so one slow stretch of the host cannot hit all of them.
// The first lookups after a round find cold caches; with 256 per block they
// stay under 1% of the stream, below its p99.
constexpr size_t kLookupsPerRound = 256;
constexpr size_t kTracedLookups = 300;
// Traced runs also replay the mix at this parallel_degree, on a pool of as
// many threads owned by the benchmark: the attribution of parallel/.
constexpr size_t kParallelDegree = 2;

struct Workload {
  const char* name;
  size_t width;  // Batch width; 1 = tuple-at-a-time.
};

const Workload kWorkloads[] = {
    {"tpch_tuple", 1},
    {"tpch_batch", 1024},
};

// ---------------------------------------------------------------------------
// Results as comparable multisets.

struct Cell {
  bool is_double = false;
  double num = 0;
  std::string text;  // Non-double values, canonical text.
};
using Row = std::vector<Cell>;

Cell MakeCell(const Value& v) {
  Cell c;
  if (!v.is_null() && v.type() == bufferdb::DataType::kDouble) {
    c.is_double = true;
    c.num = v.double_value();
  } else {
    c.text = v.is_null() ? "NULL" : v.ToString();
  }
  return c;
}

bool RowLess(const Row& a, const Row& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i].is_double != b[i].is_double) return a[i].is_double;
    if (!a[i].is_double && a[i].text != b[i].text) return a[i].text < b[i].text;
  }
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i].is_double && a[i].num != b[i].num) return a[i].num < b[i].num;
  }
  return a.size() < b.size();
}

bool Close(double a, double b) {
  double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= 1e-8 * scale;
}

// Compares two results as multisets, floats with a relative tolerance.
bool SameMultiset(std::vector<Row> a, std::vector<Row> b) {
  if (a.size() != b.size()) return false;
  std::sort(a.begin(), a.end(), RowLess);
  std::sort(b.begin(), b.end(), RowLess);
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      const Cell& x = a[r][c];
      const Cell& y = b[r][c];
      if (x.is_double != y.is_double) return false;
      if (x.is_double ? !Close(x.num, y.num) : x.text != y.text) return false;
    }
  }
  return true;
}

std::vector<Row> ToRows(const std::vector<const uint8_t*>& rows,
                        const bufferdb::Schema& schema) {
  std::vector<Row> out;
  out.reserve(rows.size());
  for (const uint8_t* r : rows) {
    bufferdb::TupleView view(r, &schema);
    Row row;
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      row.push_back(MakeCell(view.GetValue(c)));
    }
    out.push_back(std::move(row));
  }
  return out;
}

// Expected-results file: one row per line, "<query>\t<cell>\t<cell>...",
// a cell being "d:<%.17g>" for a double or "s:<text>" otherwise.
void WriteExpected(const std::string& path,
                   const std::vector<std::vector<Row>>& results) {
  std::ofstream out(path);
  for (size_t q = 0; q < results.size(); ++q) {
    for (const Row& row : results[q]) {
      out << kTpchQueries[q].name;
      for (const Cell& c : row) {
        char buf[64];
        if (c.is_double) {
          std::snprintf(buf, sizeof(buf), "d:%.17g", c.num);
          out << '\t' << buf;
        } else {
          out << "\ts:" << c.text;
        }
      }
      out << '\n';
    }
  }
}

bool ReadExpected(const std::string& path,
                  std::vector<std::vector<Row>>* results) {
  std::ifstream in(path);
  if (!in) return false;
  results->assign(kNumTpch, {});
  std::string line;
  while (std::getline(in, line)) {
    std::stringstream fields(line);
    std::string name;
    std::getline(fields, name, '\t');
    size_t q = 0;
    while (q < kNumTpch && name != kTpchQueries[q].name) ++q;
    if (q == kNumTpch) return false;
    Row row;
    std::string cell;
    while (std::getline(fields, cell, '\t')) {
      if (cell.size() < 2 || cell[1] != ':') return false;
      Cell c;
      if (cell[0] == 'd') {
        c.is_double = true;
        c.num = std::strtod(cell.c_str() + 2, nullptr);
      } else {
        c.text = cell.substr(2);
      }
      row.push_back(std::move(c));
    }
    (*results)[q].push_back(std::move(row));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory and written out when the run ends.

struct Span {
  uint64_t query_id;
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  std::string args;  // JSON object text; empty for none.
};

// Per-operator-kind aggregates of one traced execution.
struct KindStats {
  double excl_ms = 0;
  uint64_t rows = 0;
  uint64_t calls = 0;
};

struct TraceRecord {
  double bind_us = 0;
  double plan_us = 0;
  double refine_us = 0;
  double total_ms = 0;
  double root_ms = 0;
  double attributed_ms = 0;  // Sum of exclusive time over all threads.
  size_t degree = 1;
  // Max over mean of per-worker attributed time; 0 = no Exchange workers.
  double worker_skew = 0;
  uint64_t index_probes = 0;
  int buffers_added = 0;
  std::vector<double> qerrors;
  std::map<std::string, KindStats> kinds;
};

// Operator kind used in metric names: the Table-2 module name, sanitized
// ("HashJoin(probe)" -> "HashJoin-probe"), except for SeqScan, whose two
// modules differ only by predicate, and for the parallel plumbing, whose
// module_id() borrows another module's footprint.
std::string KindOf(const Operator& op) {
  if (op.module_id() == bufferdb::sim::ModuleId::kSeqScan ||
      op.module_id() == bufferdb::sim::ModuleId::kSeqScanFiltered) {
    return "SeqScan";
  }
  if (dynamic_cast<const bufferdb::parallel::ExchangeOperator*>(&op)) {
    return "Exchange";
  }
  if (dynamic_cast<const bufferdb::parallel::AggregateMergeOperator*>(&op)) {
    return "AggMerge";
  }
  std::string name;
  for (const char* p = bufferdb::sim::ModuleName(op.module_id()); *p; ++p) {
    if (*p == '(') {
      name += '-';
    } else if (*p != ')') {
      name += *p;
    }
  }
  return name;
}

struct NodeInfo {
  std::string kind;
  double estimated_rows;
  bool excluded;
};

// Pre-order, matching the node ids perf::ProfilePlan assigns.
void CollectNodes(const Operator& op, std::vector<NodeInfo>* out) {
  out->push_back({KindOf(op), op.estimated_rows(),
                  op.excluded_from_buffering()});
  for (size_t i = 0; i < op.num_children(); ++i) {
    CollectNodes(*op.child(i), out);
  }
}

void Summarize(const bufferdb::perf::QueryProfile& profile,
               const std::vector<NodeInfo>& nodes, TraceRecord* rec) {
  std::map<int, double> per_worker_ms;
  for (const bufferdb::perf::OperatorStats& n : profile.nodes()) {
    const NodeInfo& info = nodes[static_cast<size_t>(n.id)];
    double excl_ms = static_cast<double>(profile.ExclusiveWallNs(n.id)) / 1e6;
    KindStats& k = rec->kinds[info.kind];
    k.excl_ms += excl_ms;
    k.rows += n.rows;
    k.calls += n.next_calls + n.batch_calls;
    if (n.fragment >= 0) per_worker_ms[n.fragment] += excl_ms;
    if (info.kind == "IndexScan") {
      // Every probe ends in exactly one exhausted Next().
      rec->index_probes += n.next_calls > n.rows ? n.next_calls - n.rows : 0;
    }
    if (info.estimated_rows >= 0 && !info.excluded) {
      double est = std::max(1.0, info.estimated_rows);
      double act = std::max(1.0, static_cast<double>(n.rows));
      rec->qerrors.push_back(std::max(est / act, act / est));
    }
  }
  rec->root_ms = static_cast<double>(profile.RootWallNs()) / 1e6;
  rec->attributed_ms =
      static_cast<double>(profile.TotalAttributedWallNs()) / 1e6;
  if (!per_worker_ms.empty()) {
    double max_ms = 0;
    double sum_ms = 0;
    for (const auto& [w, ms] : per_worker_ms) {
      max_ms = std::max(max_ms, ms);
      sum_ms += ms;
    }
    double mean = sum_ms / static_cast<double>(per_worker_ms.size());
    rec->worker_skew = mean > 0 ? max_ms / mean : 1.0;
  }
}

std::string KindsJson(const TraceRecord& rec) {
  std::string out = "{";
  for (const auto& [kind, k] : rec.kinds) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"excl_ms\": %.6f, \"rows\": %" PRIu64
                  ", \"calls\": %" PRIu64 "}",
                  out.size() > 1 ? ", " : "", kind.c_str(), k.excl_ms, k.rows,
                  k.calls);
    out += buf;
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// The client.

struct Outcome {
  bool ok = false;
  std::string error;
  double ms = 0;
  std::vector<Row> rows;
};

class Client {
 public:
  Client(const Catalog* catalog, bufferdb::parallel::ThreadPool* pool)
      : catalog_(catalog), pool_(pool) {}

  // Runs one query from SQL text to its last row. With `trace`, the plan is
  // wrapped by perf::ProfilePlan and spans are recorded into `spans`.
  Outcome Run(const std::string& sql, bool refine, size_t width,
              size_t degree, TraceRecord* trace, std::vector<Span>* spans) {
    Outcome out;
    uint64_t qid = next_query_id_++;
    bufferdb::RefinementReport report;
    bufferdb::perf::QueryProfile profile;
    std::vector<NodeInfo> nodes;
    ExecContext ctx;

    int64_t t0 = NowNs();
    bufferdb::sql::Binder binder(catalog_);
    auto query = binder.BindSql(sql);
    int64_t t1 = NowNs();
    if (!query.ok()) return Fail(query.status().ToString());

    bufferdb::PlannerOptions options;
    options.batch_size = width;
    options.parallel_degree = degree;
    options.thread_pool = pool_;
    bufferdb::PhysicalPlanner planner(catalog_, options);
    auto plan = planner.CreatePlan(*query);
    int64_t t2 = NowNs();
    if (!plan.ok()) return Fail(plan.status().ToString());
    OperatorPtr root = std::move(*plan);

    // The refiner as CreatePlan(refine=true) runs it: the planner's batch
    // width drives the refiner's accounting.
    if (refine) {
      bufferdb::RefinementOptions refinement = options.refinement;
      refinement.batch_size = width;
      root = bufferdb::PlanRefiner(refinement).Refine(std::move(root),
                                                      &report);
    }
    int64_t t3 = NowNs();
    if (trace != nullptr) {
      CollectNodes(*root, &nodes);
      root = bufferdb::perf::ProfilePlan(std::move(root), &profile);
    }
    int64_t t4 = NowNs();
    auto rows = width > 1 ? bufferdb::ExecutePlanBatched(root.get(), &ctx,
                                                         width)
                          : bufferdb::ExecutePlan(root.get(), &ctx);
    int64_t t5 = NowNs();
    if (!rows.ok()) return Fail(rows.status().ToString());

    out.ok = true;
    out.ms = static_cast<double>(t5 - t0) / 1e6;
    out.rows = ToRows(*rows, root->output_schema());
    if (trace != nullptr) {
      trace->bind_us = static_cast<double>(t1 - t0) / 1e3;
      trace->plan_us = static_cast<double>(t2 - t1) / 1e3;
      trace->refine_us = static_cast<double>(t3 - t2) / 1e3;
      trace->total_ms = out.ms;
      trace->buffers_added = report.buffers_added;
      trace->degree = degree;
      Summarize(profile, nodes, trace);
      spans->push_back({qid, "query", t0, t5, ""});
      spans->push_back({qid, "sql.bind", t0, t1, ""});
      spans->push_back({qid, "plan.create", t1, t2, ""});
      spans->push_back({qid, "core.refine", t2, t3, ""});
      spans->push_back({qid, "exec.run", t4, t5, KindsJson(*trace)});
    }
    return out;
  }

 private:
  static Outcome Fail(std::string error) {
    Outcome out;
    out.error = std::move(error);
    return out;
  }

  const Catalog* catalog_;
  bufferdb::parallel::ThreadPool* pool_;
  uint64_t next_query_id_ = 1;
};

// ---------------------------------------------------------------------------
// Lookups: the seeded key stream and its independently computed answers.

struct LookupQuery {
  size_t kind;
  std::string sql;
  Row expected;
};

struct LookupData {
  // Per existing order, in o_orderkey order.
  std::vector<int64_t> order_keys;
  std::vector<double> order_price;
  // Per existing order: its lineitems' count and sums, in table order.
  std::vector<int64_t> line_count;
  std::vector<double> line_qty;
  std::vector<double> line_price;
};

Cell IntCell(int64_t v) { return MakeCell(Value::Int64(v)); }
Cell DoubleCell(double v) { return MakeCell(Value::Double(v)); }

LookupData BuildLookupData(const Catalog& catalog) {
  LookupData d;
  const bufferdb::Table* orders = catalog.GetTable("orders");
  const bufferdb::Table* lineitem = catalog.GetTable("lineitem");
  std::vector<std::pair<int64_t, double>> o;
  o.reserve(orders->num_rows());
  for (size_t i = 0; i < orders->num_rows(); ++i) {
    bufferdb::TupleView v = orders->view(i);
    o.emplace_back(v.GetValue(0).int64_value(),
                   v.GetValue(3).double_value());
  }
  std::sort(o.begin(), o.end());
  std::map<int64_t, size_t> slot;
  for (const auto& [key, price] : o) {
    slot[key] = d.order_keys.size();
    d.order_keys.push_back(key);
    d.order_price.push_back(price);
  }
  d.line_count.assign(o.size(), 0);
  d.line_qty.assign(o.size(), 0.0);
  d.line_price.assign(o.size(), 0.0);
  const bufferdb::Schema& ls = lineitem->schema();
  int col_key = ls.FindColumn("l_orderkey");
  int col_qty = ls.FindColumn("l_quantity");
  int col_price = ls.FindColumn("l_extendedprice");
  for (size_t i = 0; i < lineitem->num_rows(); ++i) {
    bufferdb::TupleView v = lineitem->view(i);
    size_t s = slot.at(v.GetValue(static_cast<size_t>(col_key)).int64_value());
    ++d.line_count[s];
    d.line_qty[s] += v.GetValue(static_cast<size_t>(col_qty)).double_value();
    d.line_price[s] +=
        v.GetValue(static_cast<size_t>(col_price)).double_value();
  }
  return d;
}

std::vector<LookupQuery> MakeLookupStream(const LookupData& d, uint64_t seed,
                                          size_t n) {
  bufferdb::Rng rng(seed ^ 0x6c6f6f6b7570ULL);
  std::vector<LookupQuery> out;
  out.reserve(n);
  int64_t last = static_cast<int64_t>(d.order_keys.size()) - 1;
  char sql[256];
  for (size_t i = 0; i < n; ++i) {
    LookupQuery q;
    q.kind = static_cast<size_t>(rng.Uniform(0, kNumLookupKinds - 1));
    size_t s = static_cast<size_t>(rng.Uniform(0, last));
    int64_t key = d.order_keys[s];
    if (q.kind == 0) {
      std::snprintf(sql, sizeof(sql),
                    "SELECT COUNT(*) AS n, SUM(l_quantity) AS qty "
                    "FROM lineitem WHERE l_orderkey = %" PRId64,
                    key);
      q.expected = {IntCell(d.line_count[s]), DoubleCell(d.line_qty[s])};
    } else if (q.kind == 1) {
      std::snprintf(sql, sizeof(sql),
                    "SELECT COUNT(*) AS n, SUM(l_extendedprice) AS price, "
                    "SUM(o_totalprice) AS total FROM lineitem, orders "
                    "WHERE l_orderkey = o_orderkey AND l_orderkey = %" PRId64,
                    key);
      double total = 0;
      for (int64_t j = 0; j < d.line_count[s]; ++j) total += d.order_price[s];
      q.expected = {IntCell(d.line_count[s]), DoubleCell(d.line_price[s]),
                    DoubleCell(total)};
    } else {
      s = std::min(s, d.order_keys.size() - kRangeOrders);
      size_t e = s + kRangeOrders - 1;
      std::snprintf(sql, sizeof(sql),
                    "SELECT COUNT(*) AS n, SUM(o_totalprice) AS total "
                    "FROM orders WHERE o_orderkey >= %" PRId64
                    " AND o_orderkey <= %" PRId64,
                    d.order_keys[s], d.order_keys[e]);
      double total = 0;
      for (size_t j = s; j <= e; ++j) total += d.order_price[j];
      q.expected = {IntCell(static_cast<int64_t>(kRangeOrders)),
                    DoubleCell(total)};
    }
    q.sql = sql;
    out.push_back(std::move(q));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Command line, measurement phases and the report.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 5;
  bool trace = false;
  double sf = 0.05;
  std::string expected;        // Stored expected TPC-H results to check.
  std::string write_expected;  // Write the reference results and exit.
  std::string trace_out;       // Where the traced run writes its spans.
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::string(v) == "1";
    } else if (k == "--sf") {
      a->sf = std::strtod(v, nullptr);
    } else if (k == "--expected") {
      a->expected = v;
    } else if (k == "--write-expected") {
      a->write_expected = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && a->sf > 0 && a->seconds > 0;
}

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Check(const Outcome& o, const std::vector<Row>& expected,
             const std::vector<Row>* stored, const char* what) {
    ++attempted;
    std::string err;
    if (!o.ok) {
      err = o.error;
    } else if (!SameMultiset(o.rows, expected)) {
      err = "result differs from the width-1 unrefined reference";
    } else if (stored != nullptr && !SameMultiset(o.rows, *stored)) {
      err = "result differs from the stored expected result";
    }
    if (err.empty()) return;
    ++failed;
    if (errors.size() < 8) errors.push_back(std::string(what) + ": " + err);
  }
};

void AppendArray(std::string* out, const std::vector<double>& v) {
  *out += '[';
  char buf[32];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.6f", i > 0 ? ", " : "", v[i]);
    *out += buf;
  }
  *out += ']';
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

class Bench {
 public:
  Bench(const Args& args, const Workload& w, const Catalog* catalog,
        bufferdb::parallel::ThreadPool* pool)
      : args_(args), w_(w), client_(catalog, pool) {}

  void Prepare(const Catalog& catalog) {
    lookup_data_ = BuildLookupData(catalog);
    lookups_ = MakeLookupStream(lookup_data_, args_.seed, 4096);
    for (size_t q = 0; q < kNumTpch; ++q) {
      Outcome o = client_.Run(kTpchQueries[q].sql, false, 1, 1, nullptr,
                              nullptr);
      if (!o.ok) {
        tally_.Check(o, {}, nullptr, kTpchQueries[q].name);
      }
      reference_.push_back(std::move(o.rows));
    }
    if (!args_.expected.empty()) {
      if (!ReadExpected(args_.expected, &stored_)) {
        ++tally_.attempted;
        ++tally_.failed;
        tally_.errors.push_back("cannot read " + args_.expected);
        stored_.clear();
      }
    }
  }

  const std::vector<std::vector<Row>>& reference() const { return reference_; }

  void CheckTpch(const Outcome& o, size_t q) {
    tally_.Check(o, reference_[q], stored_.empty() ? nullptr : &stored_[q],
                 kTpchQueries[q].name);
  }

  // One refined and one unrefined execution per query, then a block of
  // lookups. The mix runs in query order twice, refined plans first on even
  // rounds and unrefined first on odd ones. So no query directly follows
  // itself: back to back, a query's second run finds its data in cache and
  // runs up to 1.5x faster, which made the samples bimodal.
  void TpchRound(size_t round, bool record) {
    for (size_t half = 0; half < 2; ++half) {
      bool refine = (round + half) % 2 == 0;
      for (size_t q = 0; q < kNumTpch; ++q) {
        Outcome o = client_.Run(kTpchQueries[q].sql, refine, w_.width, 1,
                                nullptr, nullptr);
        CheckTpch(o, q);
        if (record && o.ok) (refine ? refined_ : unrefined_)[q].push_back(o.ms);
      }
    }
    Lookups(kLookupsPerRound, record, false);
  }

  void TpchPhase(double seconds) {
    TpchRound(0, false);  // Warm-up.
    int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
    size_t round = 1;
    do {
      TpchRound(round++, true);
    } while (NowNs() < end || round < 4);
  }

  // The next `n` queries of the seeded lookup stream: short selective
  // queries, always serial at width 1024 and refined (at width 1 a point
  // query is a full SeqScan, not a short query).
  void Lookups(size_t n, bool record, bool traced) {
    int64_t start = NowNs();
    for (size_t i = 0; i < n; ++i) {
      if (next_lookup_ == lookups_.size()) {
        lookups_ = MakeLookupStream(lookup_data_,
                                    args_.seed + 7919 * ++lookup_batches_,
                                    lookups_.size());
        next_lookup_ = 0;
      }
      const LookupQuery& q = lookups_[next_lookup_++];
      TraceRecord rec;
      Outcome o = client_.Run(q.sql, true, 1024, 1, traced ? &rec : nullptr,
                              &spans_);
      tally_.Check(o, {q.expected}, nullptr, kLookupNames[q.kind]);
      if (!o.ok) continue;
      if (traced) {
        traced_[kNumTpch + q.kind].push_back(std::move(rec));
      } else if (record) {
        lookup_us_[q.kind].push_back(o.ms * 1e3);
      }
    }
    if (record) {
      lookup_wall_s_ += static_cast<double>(NowNs() - start) / 1e9;
      lookup_count_ += n;
    }
  }

  // Rounds of refined TPC-H queries, traced, for at least `seconds`.
  void TracedRounds(double seconds, size_t degree,
                    std::vector<std::vector<TraceRecord>>* out) {
    int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
    do {
      for (size_t q = 0; q < kNumTpch; ++q) {
        TraceRecord rec;
        Outcome o = client_.Run(kTpchQueries[q].sql, true, w_.width, degree,
                                &rec, &spans_);
        CheckTpch(o, q);
        if (o.ok) (*out)[q].push_back(std::move(rec));
      }
    } while (NowNs() < end || (*out)[0].size() < 2);
  }

  // The untraced run: rounds of TPC-H pairs and lookups. A traced run spends
  // its first half so, as the baseline for the trace overhead and for the
  // refined-minus-unrefined buffer cost. It then traces the mix (lookups,
  // then the TPC-H queries refined) and replays the TPC-H queries at
  // kParallelDegree.
  void Run() {
    if (!args_.trace) {
      TpchPhase(args_.seconds);
      return;
    }
    TpchPhase(args_.seconds / 2);
    traced_.assign(kNumTpch + kNumLookupKinds, {});
    parallel_.assign(kNumTpch, {});
    Lookups(kTracedLookups, false, true);
    TracedRounds(args_.seconds * 0.3, 1, &traced_);
    TracedRounds(args_.seconds * 0.2, kParallelDegree, &parallel_);
  }

  std::string ReportJson(double setup_s, double peak_rss_mb) const {
    std::string out = "{\"workload\": " + JsonString(w_.name);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  ", \"setup_s\": %.6f, \"peak_rss_mb\": %.3f"
                  ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64,
                  setup_s, peak_rss_mb, tally_.attempted, tally_.failed);
    out += buf;
    out += ", \"errors\": [";
    for (size_t i = 0; i < tally_.errors.size(); ++i) {
      out += (i > 0 ? ", " : "") + JsonString(tally_.errors[i]);
    }
    out += "], \"refined_ms\": {";
    for (size_t q = 0; q < kNumTpch; ++q) {
      out += std::string(q > 0 ? ", " : "") + "\"" + kTpchQueries[q].name +
             "\": ";
      AppendArray(&out, refined_[q]);
    }
    out += "}, \"unrefined_ms\": {";
    for (size_t q = 0; q < kNumTpch; ++q) {
      out += std::string(q > 0 ? ", " : "") + "\"" + kTpchQueries[q].name +
             "\": ";
      AppendArray(&out, unrefined_[q]);
    }
    out += "}, \"lookup_us\": {";
    for (size_t k = 0; k < kNumLookupKinds; ++k) {
      out += std::string(k > 0 ? ", " : "") + "\"" + kLookupNames[k] + "\": ";
      AppendArray(&out, lookup_us_[k]);
    }
    std::snprintf(buf, sizeof(buf),
                  "}, \"lookup_wall_s\": %.6f, \"lookup_count\": %zu",
                  lookup_wall_s_, lookup_count_);
    out += buf;
    if (args_.trace) out += ", \"layers\": " + LayersJson();
    return out + "}";
  }

  void WriteSpans(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"query\": %" PRIu64 ", \"name\": \"%s\", \"start_ns\": "
                   "%" PRId64 ", \"end_ns\": %" PRId64 "%s%s}\n",
                   s.query_id, s.name, s.start_ns, s.end_ns,
                   s.args.empty() ? "" : ", \"operators\": ", s.args.c_str());
    }
    std::fclose(f);
  }

  const Tally& tally() const { return tally_; }

 private:

  using Records = std::vector<std::vector<TraceRecord>>;

  // Per query, the median of `get` over its traced executions; summed over
  // the queries.
  template <typename Get>
  static double SumOfMedians(const Records& records, Get get) {
    double total = 0;
    for (const std::vector<TraceRecord>& recs : records) {
      std::vector<double> v;
      for (const TraceRecord& r : recs) v.push_back(get(r));
      total += Median(v);
    }
    return total;
  }

  static double KindExclMs(const TraceRecord& r, const std::string& kind) {
    auto it = r.kinds.find(kind);
    return it == r.kinds.end() ? 0.0 : it->second.excl_ms;
  }

  // Per-layer metrics of the traced mix, plus parallel/ from the replay at
  // kParallelDegree.
  std::string LayersJson() const {
    std::map<std::string, double> m;
    m["sql.bind_us"] =
        SumOfMedians(traced_, [](const TraceRecord& r) { return r.bind_us; });
    m["plan.create_us"] =
        SumOfMedians(traced_, [](const TraceRecord& r) { return r.plan_us; });
    m["core.refine_us"] = SumOfMedians(
        traced_, [](const TraceRecord& r) { return r.refine_us; });
    m["exec.root_ms"] =
        SumOfMedians(traced_, [](const TraceRecord& r) { return r.root_ms; });
    m["index.probes"] = SumOfMedians(traced_, [](const TraceRecord& r) {
      return static_cast<double>(r.index_probes);
    });
    m["core.buffers_added"] = SumOfMedians(traced_, [](const TraceRecord& r) {
      return static_cast<double>(r.buffers_added);
    });
    for (const char* kind : kKinds) {
      std::string k = kind;
      m["exec.excl_ms." + k] = SumOfMedians(
          traced_, [&](const TraceRecord& r) { return KindExclMs(r, k); });
      uint64_t rows = 0;
      uint64_t calls = 0;
      for (const std::vector<TraceRecord>& recs : traced_) {
        for (const TraceRecord& r : recs) {
          auto it = r.kinds.find(k);
          if (it == r.kinds.end()) continue;
          rows += it->second.rows;
          calls += it->second.calls;
        }
      }
      m["exec.rows_per_call." + k] =
          calls > 0 ? static_cast<double>(rows) / static_cast<double>(calls)
                    : 0.0;
    }
    m["core.buffer_excl_ms"] = m["exec.excl_ms.Buffer"];
    m["index.excl_ms"] = m["exec.excl_ms.IndexScan"];

    double qmax = 1.0;
    double log_sum = 0;
    size_t log_n = 0;
    for (const std::vector<TraceRecord>& recs : traced_) {
      if (recs.empty()) continue;
      for (double e : recs.front().qerrors) {
        qmax = std::max(qmax, e);
        log_sum += std::log(e);
        ++log_n;
      }
    }
    m["plan.qerror_max"] = qmax;
    m["plan.qerror_gmean"] =
        log_n > 0 ? std::exp(log_sum / static_cast<double>(log_n)) : 1.0;

    m["parallel.exchange_excl_ms"] = SumOfMedians(
        parallel_, [](const TraceRecord& r) { return KindExclMs(r, "Exchange"); });
    double attributed = 0;
    double capacity = 0;
    std::vector<double> skews;
    for (const std::vector<TraceRecord>& recs : parallel_) {
      for (const TraceRecord& r : recs) {
        attributed += r.attributed_ms;
        capacity += static_cast<double>(r.degree) * r.root_ms;
        if (r.worker_skew > 0) skews.push_back(r.worker_skew);
      }
    }
    m["parallel.efficiency"] = capacity > 0 ? attributed / capacity : 0.0;
    m["parallel.worker_skew"] = Median(skews);

    // Untraced references from the first half of the run.
    double untraced_total = 0;
    double net = 0;
    for (size_t k = 0; k < kNumLookupKinds; ++k) {
      untraced_total += Median(lookup_us_[k]) / 1e3;
    }
    for (size_t q = 0; q < kNumTpch; ++q) {
      untraced_total += Median(refined_[q]);
      net += Median(refined_[q]) - Median(unrefined_[q]);
    }
    double traced_total = SumOfMedians(
        traced_, [](const TraceRecord& r) { return r.total_ms; });
    m["core.buffer_net_ms"] = net;
    m["perf.trace_overhead_pct"] =
        untraced_total > 0 ? 100.0 * (traced_total / untraced_total - 1.0)
                           : 0.0;

    std::string out = "{";
    char buf[160];
    for (const auto& [name, value] : m) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %.6f",
                    out.size() > 1 ? ", " : "", name.c_str(), value);
      out += buf;
    }
    return out + "}";
  }

  // The operator kinds of the serial mix's plans.
  static constexpr const char* kKinds[] = {
      "SeqScan",     "ColumnScan",      "HashJoin-probe", "NestLoopJoin",
      "IndexScan",   "Aggregation",     "HashAggregation", "Sort",
      "TopN",        "Buffer"};

  const Args& args_;
  const Workload& w_;
  Client client_;
  Tally tally_;
  LookupData lookup_data_;
  std::vector<std::vector<Row>> reference_;
  std::vector<std::vector<Row>> stored_;
  std::vector<double> refined_[kNumTpch];
  std::vector<double> unrefined_[kNumTpch];
  std::vector<double> lookup_us_[kNumLookupKinds];
  double lookup_wall_s_ = 0;
  size_t lookup_count_ = 0;
  std::vector<LookupQuery> lookups_;
  size_t next_lookup_ = 0;
  uint64_t lookup_batches_ = 0;
  std::vector<std::vector<TraceRecord>> traced_;
  std::vector<std::vector<TraceRecord>> parallel_;
  std::vector<Span> spans_;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload W --seed N --seconds S --trace 0|1 "
                 "[--sf X] [--expected FILE] [--write-expected FILE] "
                 "[--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Set-up: LoadTpch builds the row tables, indexes and columnar images.
  bufferdb::tpch::TpchConfig config;
  config.scale_factor = args.sf;
  config.seed = args.seed;
  Catalog catalog;
  int64_t t0 = NowNs();
  bufferdb::Status st = bufferdb::tpch::LoadTpch(config, &catalog);
  double setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  if (!st.ok()) {
    std::fprintf(stderr, "LoadTpch: %s\n", st.ToString().c_str());
    return 1;
  }

  // The traced parallel replay runs on a pool owned by the benchmark, sized
  // to the degree, so the client thread plus workers fit in 3 cores.
  std::unique_ptr<bufferdb::parallel::ThreadPool> pool;
  if (args.trace) {
    pool = std::make_unique<bufferdb::parallel::ThreadPool>(kParallelDegree);
  }
  Bench bench(args, *w, &catalog, pool.get());
  bench.Prepare(catalog);
  if (!args.write_expected.empty()) {
    WriteExpected(args.write_expected, bench.reference());
    return bench.tally().failed == 0 ? 0 : 1;
  }
  bench.Run();
  if (args.trace && !args.trace_out.empty()) bench.WriteSpans(args.trace_out);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  std::printf("%s\n", bench.ReportJson(setup_s, peak_rss_mb).c_str());
  for (const std::string& e : bench.tally().errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  return bench.tally().failed == 0 ? 0 : 1;
}

#include "core/knori.hpp"

#include "core/engine_impl.hpp"
#include "core/init.hpp"
#include "core/run_metrics.hpp"
#include "obs/span.hpp"

namespace knor {
namespace detail {

Result run_node(ConstMatrixView data, const Options& opts,
                DenseMatrix initial, GlobalReducer* reducer,
                const ResumeState* resume, IterObserver* observer) {
  return run_node(BlockedMtiStep{}, data, opts, std::move(initial), reducer,
                  resume, observer);
}

}  // namespace detail

Result kmeans(ConstMatrixView data, const Options& opts) {
  if (data.empty()) throw std::invalid_argument("kmeans: empty dataset");
  detail::RunMetricsScope metrics;
  DenseMatrix initial;
  {
    obs::Span span_init("init");
    initial = init_centroids(data, opts);
  }
  Result res = detail::run_node(data, opts, std::move(initial), nullptr);
  metrics.attach(res);
  return res;
}

}  // namespace knor

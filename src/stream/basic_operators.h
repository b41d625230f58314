// Stateless unary operators: filter (selection on certain attributes or
// probability thresholds computed by the caller-supplied predicate) and map
// (projection / derived attributes, e.g. Q1's `area(R.(x,y,z)) AS area`).

#ifndef USP_STREAM_BASIC_OPERATORS_H_
#define USP_STREAM_BASIC_OPERATORS_H_

#include <functional>

#include "stream/batch.h"
#include "stream/operator.h"

namespace usp {
namespace stream {

/// Emits exactly the tuples for which `pred` returns true.
class FilterOperator final : public Operator {
 public:
  using Predicate = std::function<bool(const Tuple&)>;
  FilterOperator(std::string name, Predicate pred)
      : Operator(std::move(name)), pred_(std::move(pred)) {}

 protected:
  common::Status ProcessBatch(const TupleBatch& batch,
                              Collector* out) override {
    for (const Tuple& t : batch) {
      if (pred_(t)) out->Emit(t);
    }
    return common::Status::OK();
  }

 private:
  Predicate pred_;
};

/// Transforms each tuple via a function; the function may drop the tuple by
/// returning an error with code kNotFound (treated as "no output"), and any
/// other error aborts the stream.
class MapOperator final : public Operator {
 public:
  using MapFn = std::function<common::Result<Tuple>(const Tuple&)>;
  MapOperator(std::string name, MapFn fn)
      : Operator(std::move(name)), fn_(std::move(fn)) {}

 protected:
  common::Status ProcessBatch(const TupleBatch& batch,
                              Collector* out) override {
    for (const Tuple& t : batch) {
      auto res = fn_(t);
      if (!res.ok()) {
        if (res.status().code() == common::StatusCode::kNotFound) continue;
        return res.status();
      }
      out->Emit(res.MoveValueUnsafe());
    }
    return common::Status::OK();
  }

 private:
  MapFn fn_;
};

/// Emits every tuple unchanged while invoking a side-effect callback;
/// useful for taps/monitoring in example pipelines.
class TapOperator final : public Operator {
 public:
  using TapFn = std::function<void(const Tuple&)>;
  TapOperator(std::string name, TapFn fn)
      : Operator(std::move(name)), fn_(std::move(fn)) {}

 protected:
  common::Status ProcessBatch(const TupleBatch& batch,
                              Collector* out) override {
    for (const Tuple& t : batch) {
      fn_(t);
      out->Emit(t);
    }
    return common::Status::OK();
  }

 private:
  TapFn fn_;
};

}  // namespace stream
}  // namespace usp

#endif  // USP_STREAM_BASIC_OPERATORS_H_

#include "runtime/executor.hpp"

#include "runtime/thread_pool.hpp"

namespace atalib::runtime {

Executor& default_executor() { return ThreadPool::global(); }

}  // namespace atalib::runtime

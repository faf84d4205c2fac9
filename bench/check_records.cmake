# Runs compute_kernels --quick --records DIR and compares those records with
# themselves through e2e_pipeline --compare, which must exit 0 and print one
# throughput row per (kernel, threads) cell.
#
#   cmake -DBENCH=<compute_kernels> -DPIPELINE=<e2e_pipeline>
#         -DSPEC=<BENCHMARK.json> -DDIR=<records dir> -P check_records.cmake
foreach(var BENCH PIPELINE SPEC DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${DIR}")
execute_process(COMMAND "${BENCH}" --quick --records "${DIR}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "compute_kernels exited with ${rc}")
endif()

file(GLOB records "${DIR}/*.json")
list(LENGTH records cells)
if(cells EQUAL 0)
  message(FATAL_ERROR "compute_kernels wrote no records to ${DIR}")
endif()
string(REPLACE ";" "," record_list "${records}")
execute_process(
  COMMAND "${PIPELINE}" --compare "${record_list}" --with "${record_list}"
          --benchmark-json "${SPEC}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "e2e_pipeline --compare exited with ${rc}:\n${out}${err}")
endif()

string(REGEX MATCHALL "\\(1 base, 1 candidate runs\\)" workloads "${out}")
string(REGEX MATCHALL "  throughput [^\n]* ok" rows "${out}")
list(LENGTH workloads workload_count)
list(LENGTH rows row_count)
if(NOT workload_count EQUAL cells OR NOT row_count EQUAL cells)
  message(FATAL_ERROR "${cells} records, but ${workload_count} workloads "
                      "and ${row_count} throughput rows:\n${out}")
endif()
foreach(kernel csr_build pagerank wcc triangles)
  if(NOT out MATCHES "compute_kernels/${kernel}/t1 ")
    message(FATAL_ERROR "no row for ${kernel} at 1 thread:\n${out}")
  endif()
endforeach()

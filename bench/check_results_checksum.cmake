# Runs one table bench and compares the `results` checksum in its
# BENCH_<name>.json with a pinned value. Invoked by ctest as
#   cmake -DBENCH=<binary> -DNAME=<name> -DEXPECTED=<hex> -DOUT_DIR=<dir>
#         -P check_results_checksum.cmake
# at the scale and count the pinned value was computed for.
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(
  COMMAND "${BENCH}" --scale 0.02 --count 200 --json-dir "${OUT_DIR}"
  RESULT_VARIABLE status
  OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()
file(READ "${OUT_DIR}/BENCH_${NAME}.json" report)
string(JSON actual GET "${report}" checksums results)
if(NOT actual STREQUAL EXPECTED)
  message(FATAL_ERROR
          "${NAME}: results checksum ${actual}, expected ${EXPECTED}")
endif()
message(STATUS "${NAME}: results checksum ${actual}")

# zonelint's DS linkage from a `dsset-<origin>.` file beside the zone file.
# Invoked by ctest as
#   cmake -DZONELINT=<binary> -DZONE=<benign.example.zone> -DDSSET=<file>
#         -DOUT_DIR=<dir> -DEXPECT=<clean | rule names, ';'-separated>
#         -P dsset_check.cmake
# It copies the signed zone and the DS set into OUT_DIR under the names
# BIND's dnssec-signzone uses and lints that directory. EXPECT=clean
# requires exit 0 and no findings; otherwise zonelint must exit 1 and
# report every listed rule.
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
configure_file("${ZONE}" "${OUT_DIR}/benign.example.zone" COPYONLY)
configure_file("${DSSET}" "${OUT_DIR}/dsset-benign.example." COPYONLY)
execute_process(
  COMMAND "${ZONELINT}" --root "${OUT_DIR}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE output
  ERROR_VARIABLE errors)
message(STATUS "zonelint exited ${status}:\n${output}${errors}")
if(EXPECT STREQUAL "clean")
  if(NOT status EQUAL 0 OR NOT output STREQUAL "")
    message(FATAL_ERROR "expected a clean lint with the matching DS set")
  endif()
else()
  if(NOT status EQUAL 1)
    message(FATAL_ERROR "expected exit 1 (findings), got ${status}")
  endif()
  foreach(rule IN LISTS EXPECT)
    string(FIND "${output}" "[${rule}]" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "expected a [${rule}] finding")
    endif()
  endforeach()
endif()

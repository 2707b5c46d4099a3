# The KeyTrap-shaped zone the zonelint ratchet must reject. Invoked by
# ctest (the test is registered WILL_FAIL) as
#   cmake -DZONELINT=<binary> -DSOURCE=<benign-nsec3.example.zone>
#         -DBASELINE=<empty baseline> -DOUT_DIR=<dir> -P keytrap_probe.cmake
# It writes the benign NSEC3 corpus zone, renamed (the CLI derives $ORIGIN
# from the file name) and with its iteration count raised past the
# validator cap, into OUT_DIR and lints that directory. The script fails
# only when zonelint reports fresh findings (exit 1); a clean lint or a
# usage/I-O error (exit 2) ends it normally, which fails the test.
if(NOT EXISTS "${SOURCE}")
  message(STATUS "probe source ${SOURCE} not found")
else()
  file(READ "${SOURCE}" zone)
  string(REPLACE "benign-nsec3.example." "_injected.keytrap.probe.example."
         zone "${zone}")
  string(REPLACE "NSEC3PARAM 1 0 0" "NSEC3PARAM 1 0 5000" zone "${zone}")
  string(REPLACE "NSEC3 1 0 0" "NSEC3 1 0 5000" zone "${zone}")
  file(REMOVE_RECURSE "${OUT_DIR}")
  file(WRITE "${OUT_DIR}/_injected.keytrap.probe.example.zone" "${zone}")
  execute_process(
    COMMAND "${ZONELINT}" --root "${OUT_DIR}" --baseline "${BASELINE}"
    RESULT_VARIABLE status)
  if(status EQUAL 1)
    message(FATAL_ERROR "zonelint rejected the KeyTrap-shaped probe")
  endif()
  message(STATUS "zonelint exited ${status} on the KeyTrap-shaped probe; "
                 "expected 1 (fresh findings)")
endif()

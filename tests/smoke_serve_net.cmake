# Network serving smoke test, two legs:
#
#   1. vsq_serve_net --selfcheck: bind an ephemeral loopback port, run one
#      real-socket inference round trip against the builtin tiny model,
#      and hit GET /healthz and GET /stats. Exercises the production
#      binary's load → bind → serve → selfcheck path end to end.
#   2. vsq_soak --net: the differential soak oracle across the wire — an
#      in-process NetServer over a 2-model registry, concurrent TCP
#      clients, deliberate overload (tiny queue + immediate admission so
#      sheds MUST occur; --expect-shed fails the run if none do), hot
#      reload churn, and the slow/vanishing-client abuse scenarios
#      (--slow-clients). Every accepted response is audited bit-identical
#      to a sequential reference runner; shed counts are cross-checked
#      client vs server vs registry.
#   3. Usage errors exit 2: vsq_soak --connect=127.0.0.1: (no port) must
#      not end in an uncaught exception, and an unknown flag
#      (vsq_soak --package=, vsq_serve_net --low-lane=) must not be
#      silently ignored.
#
# Pass/fail rides on exit codes (both tools exit non-zero on any gate
# failure) plus a few output markers. Invoked from ctest with
#   -DVSQ_SERVE_NET=<path> -DVSQ_SOAK=<path> -DWORK_DIR=<scratch dir>
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{VSQ_ARTIFACTS} "${WORK_DIR}/artifacts")

execute_process(
  COMMAND "${VSQ_SERVE_NET}" --builtin=tiny --selfcheck
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE out)
message(STATUS "vsq_serve_net --selfcheck output:\n${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "vsq_serve_net --selfcheck failed with exit code ${rc}")
endif()
if(NOT out MATCHES "vsq_serve_net listening on ")
  message(FATAL_ERROR "vsq_serve_net did not print its listening banner")
endif()
if(NOT out MATCHES "selfcheck ok")
  message(FATAL_ERROR "vsq_serve_net selfcheck did not report success")
endif()

execute_process(
  COMMAND "${VSQ_SOAK}" --net --builtin=tiny,tiny8
          --clients=6 --requests=300 --burst-max=4 --reload-every=75
          --queue-depth=4 --admission-timeout-us=0 --max-wait-us=20000
          --expect-shed --slow-clients --seed=3
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE out)
message(STATUS "vsq_soak --net output:\n${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "vsq_soak --net failed with exit code ${rc}")
endif()
if(NOT out MATCHES "responses verified bit-identical to sequential execution")
  message(FATAL_ERROR "vsq_soak --net did not report the differential audit")
endif()
if(NOT out MATCHES "shed")
  message(FATAL_ERROR "vsq_soak --net did not report shed accounting")
endif()
if(out MATCHES " 0 hot reloads")
  message(FATAL_ERROR "vsq_soak --net performed no hot reloads (chaos trigger broken)")
endif()

execute_process(
  COMMAND "${VSQ_SOAK}" --connect=127.0.0.1: --builtin=tiny
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE out)
message(STATUS "vsq_soak --connect=127.0.0.1: output:\n${out}")
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "vsq_soak --connect with no port exited ${rc}, not the usage error 2")
endif()

execute_process(
  COMMAND "${VSQ_SOAK}" --package=x.vsqa --builtin=tiny --requests=8
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE out)
message(STATUS "vsq_soak --package=x.vsqa output:\n${out}")
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "vsq_soak with the unknown flag --package exited ${rc}, not the usage error 2")
endif()

execute_process(
  COMMAND "${VSQ_SERVE_NET}" --builtin=tiny --selfcheck --low-lane=0.25
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE out)
message(STATUS "vsq_serve_net --low-lane=0.25 output:\n${out}")
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "vsq_serve_net with the unknown flag --low-lane exited ${rc}, not the usage error 2")
endif()

# End-to-end transformer serving smoke test: export the tiny BERT-style
# encoder's integer package with vsq_quantize (sequence geometry, fp32
# layernorm/embedding sidecars, the embed/attention/gelu forward program),
# inspect it, then drive it with vsq_soak's one-model closed loop (no
# reloads, one request per client iteration), clients sending token rows
# of MIXED lengths. The tool's differential audit (on by default) makes
# the run fail unless every served output is bit-identical to sequential
# single-request inference at its own true length, and the stats gate
# asserts the batcher actually mixed two true lengths in one forward
# pass. Invoked from ctest (see tests/CMakeLists.txt) with
#   -DVSQ_QUANTIZE=<path> -DVSQ_INSPECT=<path> -DVSQ_SOAK=<path>
#   -DWORK_DIR=<scratch dir>
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{VSQ_ARTIFACTS} "${WORK_DIR}/artifacts")
set(PACKAGE "${WORK_DIR}/tiny_bert_int.vsqa")

execute_process(
  COMMAND "${VSQ_QUANTIZE}" --model=tiny_bert --config=4/8/6/10 --vector=16
          "--out=${PACKAGE}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE out)
message(STATUS "vsq_quantize output:\n${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "vsq_quantize failed with exit code ${rc}")
endif()

execute_process(
  COMMAND "${VSQ_INSPECT}" "--package=${PACKAGE}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE out)
message(STATUS "vsq_inspect output:\n${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "vsq_inspect failed with exit code ${rc}")
endif()
if(NOT out MATCHES "sequence max_seq=32 dim=32 heads=4")
  message(FATAL_ERROR "vsq_inspect did not print the sequence geometry")
endif()
if(NOT out MATCHES "embed\\(emb\\)")
  message(FATAL_ERROR "vsq_inspect did not print the embedding program step")
endif()
if(NOT out MATCHES "attn\\(layer1.attn heads=4 dim=32\\)")
  message(FATAL_ERROR "vsq_inspect did not print the attention program step")
endif()
if(NOT out MATCHES "gelu")
  message(FATAL_ERROR "vsq_inspect did not print the gelu program step")
endif()

# A long straggler window plus more clients than max_batch makes
# mixed-length coalescing essentially certain; the gates below still
# assert it rather than assume it.
execute_process(
  COMMAND "${VSQ_SOAK}" "--packages=tiny_bert=${PACKAGE}" --reload-every=0 --burst-max=1
          --clients=6 --requests=96 --max-batch=8 --max-wait-us=5000 --unique=96
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE out)
message(STATUS "vsq_soak output:\n${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "vsq_soak failed with exit code ${rc}")
endif()
if(NOT out MATCHES "96 responses verified bit-identical to sequential execution")
  message(FATAL_ERROR "vsq_soak did not report the bit-exactness audit")
endif()
if(NOT out MATCHES "\"requests\":96")
  message(FATAL_ERROR "vsq_soak JSON line missing or wrong request count")
endif()
if(out MATCHES "\"mixed_bucket_batches\":0,")
  message(FATAL_ERROR "no batch mixed two sequence lengths - the "
                      "batcher never shared a forward pass")
endif()

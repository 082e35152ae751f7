# Drives crtool end to end; any non-zero exit fails the test.

# Runs crtool with ARGN (output discarded) and fails unless it exits `code`.
function(expect_exit code)
  execute_process(COMMAND ${CRTOOL} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL code)
    string(JOIN " " line ${ARGN})
    message(FATAL_ERROR "crtool ${line} should exit ${code}, got ${rc}")
  endif()
endfunction()

set(graph ${CMAKE_CURRENT_BINARY_DIR}/smoke.graph)
execute_process(COMMAND ${CRTOOL} gen geometric ${graph} 64 2 4 3 RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crtool gen failed")
endif()
execute_process(COMMAND ${CRTOOL} info ${graph} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crtool info failed")
endif()
execute_process(COMMAND ${CRTOOL} route ${graph} 0 63 RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crtool route failed")
endif()
execute_process(COMMAND ${CRTOOL} eval ${graph} 300 0.5 RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crtool eval failed")
endif()
set(trace_json ${CMAKE_CURRENT_BINARY_DIR}/smoke_trace.json)
execute_process(COMMAND ${CRTOOL} trace ${graph} 0 63 0.5 ${trace_json}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crtool trace failed")
endif()
if(NOT EXISTS ${trace_json})
  message(FATAL_ERROR "crtool trace did not write ${trace_json}")
endif()
# Audit campaign: a clean sweep exits 0 and writes the JSON report.
set(audit_json ${CMAKE_CURRENT_BINARY_DIR}/smoke_audit.json)
execute_process(COMMAND ${CRTOOL} audit --families grid,spider --n 32
                --seeds 1 --workers 1 --backends dense --out ${audit_json}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crtool audit clean sweep should exit 0, got ${rc}")
endif()
if(NOT EXISTS ${audit_json})
  message(FATAL_ERROR "crtool audit did not write ${audit_json}")
endif()
# An injected defect must turn into exit 1 (violations found, not a crash).
execute_process(COMMAND ${CRTOOL} audit --families grid --n 32 --seeds 1
                --workers 1 --backends dense --inject flip-codec-bit
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "crtool audit with an injected defect should exit 1, got ${rc}")
endif()
# Malformed audit options must exit 2 (usage).
execute_process(COMMAND ${CRTOOL} audit --families not-a-family
                RESULT_VARIABLE rc ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "crtool audit with unknown family should exit 2, got ${rc}")
endif()
execute_process(COMMAND ${CRTOOL} audit --workers 0 RESULT_VARIABLE rc ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "crtool audit with --workers 0 should exit 2, got ${rc}")
endif()
# The metric has two modes, dense and rowfree; any other mode, and the
# row-cache budget option of the removed lazy mode, are usage errors.
execute_process(COMMAND ${CRTOOL} audit --backends lazy
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "crtool audit --backends lazy should exit 2, got ${rc}")
endif()
execute_process(COMMAND ${CRTOOL} --metric lazy info ${graph}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "crtool --metric lazy should exit 2, got ${rc}")
endif()
execute_process(COMMAND ${CRTOOL} --metric-cache-mb 4 info ${graph}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "crtool --metric-cache-mb should exit 2, got ${rc}")
endif()
execute_process(COMMAND ${CRTOOL} audit --families grid --n 32 --seeds 1
                --workers 1 --backends rowfree
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crtool audit --backends rowfree should exit 0, got ${rc}")
endif()
# Snapshot pipeline: build --out -> load-info -> serve (with the fingerprint
# audit and the corruption battery) must succeed end to end.
set(snap ${CMAKE_CURRENT_BINARY_DIR}/smoke.snap)
execute_process(COMMAND ${CRTOOL} build ${graph} 0.5 --out ${snap}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crtool build --out failed")
endif()
if(NOT EXISTS ${snap})
  message(FATAL_ERROR "crtool build did not write ${snap}")
endif()
execute_process(COMMAND ${CRTOOL} load-info ${snap} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crtool load-info failed")
endif()
set(serving_json ${CMAKE_CURRENT_BINARY_DIR}/smoke_serving.json)
execute_process(COMMAND ${CRTOOL} serve ${snap} --pairs 500 --audit
                --out ${serving_json} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crtool serve --audit should exit 0, got ${rc}")
endif()
if(NOT EXISTS ${serving_json})
  message(FATAL_ERROR "crtool serve did not write ${serving_json}")
endif()
# --obs-out picks the scrape format from the file name: JSON unless it ends
# in .prom. With telemetry compiled out the Prometheus text may be empty.
set(scrape_json ${CMAKE_CURRENT_BINARY_DIR}/smoke_scrape.json)
set(scrape_prom ${CMAKE_CURRENT_BINARY_DIR}/smoke_scrape.prom)
foreach(scrape ${scrape_json} ${scrape_prom})
  file(REMOVE ${scrape})
  execute_process(COMMAND ${CRTOOL} serve ${snap} --pairs 50 --obs-out ${scrape}
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0 OR NOT EXISTS ${scrape})
    message(FATAL_ERROR "crtool serve --obs-out ${scrape} failed with ${rc}")
  endif()
endforeach()
file(READ ${scrape_json} head LIMIT 1)
if(NOT head MATCHES "^[{]")
  message(FATAL_ERROR "serve --obs-out ${scrape_json} is not JSON")
endif()
file(READ ${scrape_prom} head LIMIT 1)
if(head MATCHES "^[{]")
  message(FATAL_ERROR "serve --obs-out ${scrape_prom} is JSON, not Prometheus text")
endif()
# A corrupted snapshot must be rejected with exit 1 (typed error, no crash).
# The exhaustive truncation/bit-flip battery runs in test_snapshot and inside
# `serve --audit` above; here the CLI path is exercised with a file that has
# the right magic but garbage everywhere else.
set(corrupt ${CMAKE_CURRENT_BINARY_DIR}/smoke_corrupt.snap)
file(WRITE ${corrupt} "CRSNAP01 this is not a valid snapshot payload at all")
execute_process(COMMAND ${CRTOOL} serve ${corrupt} --pairs 10
                RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "crtool serve on a corrupt snapshot should exit 1, got ${rc}")
endif()
execute_process(COMMAND ${CRTOOL} load-info ${corrupt}
                RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "crtool load-info on a corrupt snapshot should exit 1, got ${rc}")
endif()
# A missing snapshot is a runtime error (exit 1), not a crash.
execute_process(COMMAND ${CRTOOL} serve ${CMAKE_CURRENT_BINARY_DIR}/absent.snap
                RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "crtool serve on a missing snapshot should exit 1, got ${rc}")
endif()
# eps outside (0, 1) — non-finite, non-positive, or >= 1 — must exit 2 at
# the CLI boundary.
foreach(bad_eps nan inf -1 0 1 1.5)
  execute_process(COMMAND ${CRTOOL} eval ${graph} 10 ${bad_eps}
                  RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "crtool eval with eps=${bad_eps} should exit 2, got ${rc}")
  endif()
  execute_process(COMMAND ${CRTOOL} build ${graph} ${bad_eps} --out ${snap}.bad
                  RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "crtool build with eps=${bad_eps} should exit 2, got ${rc}")
  endif()
endforeach()
expect_exit(2 audit --eps 1.5)
# A budget must be positive; zero or negative is a usage error, not a
# silently unbudgeted sweep.
expect_exit(2 audit --budget-s -1)
expect_exit(2 audit --budget-s 0)
# Degenerate generator sizes are usage errors, checked before the generator.
set(bad_gen ${CMAKE_CURRENT_BINARY_DIR}/smoke_bad.graph)
expect_exit(2 gen grid ${bad_gen} 0 0)
expect_exit(2 gen torus ${bad_gen} 1 1)
expect_exit(2 gen spider ${bad_gen} 0 0)
expect_exit(2 gen tree ${bad_gen} 1)
expect_exit(2 gen geometric ${bad_gen} 1)
expect_exit(2 gen cliques ${bad_gen} 0 0)
expect_exit(2 gen clusters ${bad_gen} 0 0)
expect_exit(2 gen lbtree ${bad_gen} 4 0)
if(EXISTS ${bad_gen})
  message(FATAL_ERROR "a rejected gen command wrote ${bad_gen}")
endif()
# Internet-like families: gen -> build -> mine -> server replay, end to end.
set(pl_graph ${CMAKE_CURRENT_BINARY_DIR}/smoke_powerlaw.graph)
execute_process(COMMAND ${CRTOOL} gen powerlaw ${pl_graph} 64 2 7 RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crtool gen powerlaw failed")
endif()
execute_process(COMMAND ${CRTOOL} gen hyperbolic
                ${CMAKE_CURRENT_BINARY_DIR}/smoke_hyp.graph 64 0.75 6.0 7
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crtool gen hyperbolic failed")
endif()
execute_process(COMMAND ${CRTOOL} gen astopo
                ${CMAKE_CURRENT_BINARY_DIR}/smoke_as.graph 64 8 7
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crtool gen astopo failed")
endif()
set(mined ${CMAKE_CURRENT_BINARY_DIR}/smoke_mined.txt)
execute_process(COMMAND ${CRTOOL} mine ${pl_graph} ${mined} --samples 100
                --keep 16 RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crtool mine failed")
endif()
if(NOT EXISTS ${mined})
  message(FATAL_ERROR "crtool mine did not write ${mined}")
endif()
set(pl_snap ${CMAKE_CURRENT_BINARY_DIR}/smoke_powerlaw.snap)
execute_process(COMMAND ${CRTOOL} build ${pl_graph} 0.5 --out ${pl_snap}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crtool build powerlaw failed")
endif()
foreach(shape uniform zipf incast)
  execute_process(COMMAND ${CRTOOL} server ${pl_snap} --requests 200
                  --traffic ${shape} RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "crtool server --traffic ${shape} failed with ${rc}")
  endif()
endforeach()
execute_process(COMMAND ${CRTOOL} server ${pl_snap} --source ${mined}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crtool server replay of mined pairs failed with ${rc}")
endif()
# Garbage values for the new numeric options must exit 2 at the CLI boundary.
foreach(bad nan inf -1 0)
  execute_process(COMMAND ${CRTOOL} gen hyperbolic
                  ${CMAKE_CURRENT_BINARY_DIR}/bad.graph 64 ${bad} 6.0 7
                  RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "crtool gen hyperbolic alpha=${bad} should exit 2, got ${rc}")
  endif()
  execute_process(COMMAND ${CRTOOL} server ${pl_snap} --requests 10
                  --traffic zipf --zipf-skew ${bad}
                  RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "crtool server --zipf-skew ${bad} should exit 2, got ${rc}")
  endif()
endforeach()
execute_process(COMMAND ${CRTOOL} gen powerlaw
                ${CMAKE_CURRENT_BINARY_DIR}/bad.graph 64 0 7
                RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "crtool gen powerlaw with 0 edges/node should exit 2, got ${rc}")
endif()
execute_process(COMMAND ${CRTOOL} gen astopo
                ${CMAKE_CURRENT_BINARY_DIR}/bad.graph 64 999 7
                RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "crtool gen astopo with core > n should exit 2, got ${rc}")
endif()
execute_process(COMMAND ${CRTOOL} server ${pl_snap} --traffic mystery
                RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "crtool server --traffic mystery should exit 2, got ${rc}")
endif()
execute_process(COMMAND ${CRTOOL} server ${pl_snap} --traffic worst
                RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "crtool server --traffic worst (no replay file) should exit 2, got ${rc}")
endif()
execute_process(COMMAND ${CRTOOL} mine ${pl_graph} ${mined}.bad --samples 0
                RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "crtool mine --samples 0 should exit 2, got ${rc}")
endif()
# Bad invocations must exit 2 (usage), not crash or succeed.
execute_process(COMMAND ${CRTOOL} gen mystery ${graph} 8 RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "crtool gen with unknown family should exit 2, got ${rc}")
endif()
execute_process(COMMAND ${CRTOOL} route ${graph} zero 63 RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "crtool route with malformed node should exit 2, got ${rc}")
endif()
execute_process(COMMAND ${CRTOOL} frobnicate RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "crtool unknown command should exit 2, got ${rc}")
endif()
# The retired snapshot writer and registry dump are unknown commands now
# (build --out and serve --obs-out do their jobs).
expect_exit(2 save ${graph} ${snap}.old 0.5)
expect_exit(2 stats ${snap})
# Every command rejects an option it does not list and a surplus argument.
set(out_snap ${CMAKE_CURRENT_BINARY_DIR}/smoke_bad.snap)
expect_exit(2 serve ${snap} --pair 10)
expect_exit(2 server ${pl_snap} --request 10)
expect_exit(2 mine ${pl_graph} ${mined}.bad --sample 5)
expect_exit(2 build ${graph} 0.5 --out ${out_snap} --bogus)
expect_exit(2 build ${graph} 0.5 --stream --out ${out_snap})
expect_exit(2 build ${graph} 0.5)
expect_exit(2 info ${graph} extra)
expect_exit(2 load-info ${snap} extra)
expect_exit(2 route ${graph} 0 63 0.5 extra)
if(EXISTS ${out_snap})
  message(FATAL_ERROR "a rejected build command wrote ${out_snap}")
endif()

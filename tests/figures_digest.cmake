# Figures gate: render `pstool figures --smoke` and the full-size
# `--only=table1,fig13,fig14,fig21` into a scratch directory, and pass
# only if every file written has the SHA-256 recorded in GOLDEN.
#
#   cmake -DPSTOOL=<pstool> -DJOBS=N -DGOLDEN=<digests.txt>
#         -DWORK=<scratch dir> -P figures_digest.cmake
#
# GOLDEN holds one "<run>/<figure>.out <sha256>" line per file, sorted;
# lines starting with '#' are comments. The figures are byte-identical
# for every job count, so one golden serves every JOBS.
set(runs smoke full)
set(smoke_args --smoke)
set(full_args --only=table1,fig13,fig14,fig21)

file(REMOVE_RECURSE "${WORK}")
set(actual)
foreach (run ${runs})
    execute_process(
        COMMAND "${PSTOOL}" figures ${${run}_args} --jobs=${JOBS}
                --out-dir=${WORK}/${run}
        RESULT_VARIABLE status OUTPUT_QUIET ERROR_QUIET)
    if (NOT status EQUAL 0)
        message(FATAL_ERROR "pstool figures ${${run}_args} "
                            "--jobs=${JOBS} exited '${status}'")
    endif ()
    file(GLOB outs RELATIVE "${WORK}" "${WORK}/${run}/*")
    foreach (out ${outs})
        file(SHA256 "${WORK}/${out}" digest)
        list(APPEND actual "${out} ${digest}")
    endforeach ()
endforeach ()
list(SORT actual)

file(STRINGS "${GOLDEN}" lines)
set(expected)
foreach (line ${lines})
    if (NOT line MATCHES "^#")
        list(APPEND expected "${line}")
    endif ()
endforeach ()

if (NOT actual STREQUAL expected)
    string(REPLACE ";" "\n  " a "${actual}")
    string(REPLACE ";" "\n  " e "${expected}")
    message(FATAL_ERROR "figure digests differ at --jobs=${JOBS}\n"
                        "expected:\n  ${e}\nactual:\n  ${a}")
endif ()
